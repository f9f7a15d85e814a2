/**
 * @file
 * Distributed-transport tests (src/net/): wire-format hardening (every
 * message type round-trips; truncated, oversized, wrong-magic,
 * wrong-version and wrong-type frames are rejected with typed statuses
 * — no crash, no hang), Van endpoints (loopback FIFO semantics, Unix
 * and TCP sockets, garbage bytes on a live socket), Postoffice
 * membership/routing, Monitor failure detection, and the cluster
 * runtime's two headline guarantees: a loopback cluster at
 * SemiAsync(S=0) reproduces the synchronous weights bit for bit, and a
 * worker that dies mid-round costs its in-flight jobs (evicted through
 * the staleness accounting), never a hang.
 */
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "fl/fl_cluster.h"
#include "fl/system.h"
#include "harness/experiment.h"
#include "net/cluster.h"
#include "net/monitor.h"
#include "net/net_config.h"
#include "net/postoffice.h"
#include "net/van.h"
#include "net/wire.h"
#include "ps/compression.h"
#include "ps/sharded_store.h"

namespace autofl {
namespace {

using net::ClusterJob;
using net::ClusterServer;
using net::ClusterWorker;
using net::Listener;
using net::make_loopback_pair;
using net::Message;
using net::Monitor;
using net::MsgType;
using net::NetAddress;
using net::Postoffice;
using net::RecvStatus;
using net::Transport;
using net::WireStatus;
using net::WorkerJob;

// ---------------------------------------------------------- wire format --

/** A message exercising every payload section. */
Message
full_message(MsgType t)
{
    Message m;
    m.type = t;
    m.from = 3;
    m.round = 41;
    m.seq = 1234567890123ull;
    m.clock = 17;
    m.ints = {-5, 0, 2147483647};
    m.floats = {1.5f, -0.0f, 3.25e-7f, 1e30f};
    m.doubles = {0.125, -9e99};
    m.text = "diag";
    m.bytes = {0xde, 0xad, 0x00, 0x07};
    return m;
}

std::vector<MsgType>
all_msg_types()
{
    std::vector<MsgType> types;
    for (uint16_t t = net::kMinMsgType; t <= net::kMaxMsgType; ++t)
        types.push_back(static_cast<MsgType>(t));
    return types;
}

TEST(Wire, RoundTripsEveryMessageType)
{
    for (MsgType t : all_msg_types()) {
        const Message in = full_message(t);
        const std::vector<uint8_t> frame = net::frame_message(in);
        EXPECT_EQ(frame.size(), net::wire_frame_bytes(in));
        Message out;
        size_t consumed = 0;
        ASSERT_EQ(net::parse_frame(frame.data(), frame.size(), &out,
                                   &consumed),
                  WireStatus::Ok)
            << net::msg_type_name(t);
        EXPECT_EQ(consumed, frame.size());
        EXPECT_EQ(out.type, in.type);
        EXPECT_EQ(out.from, in.from);
        EXPECT_EQ(out.round, in.round);
        EXPECT_EQ(out.seq, in.seq);
        EXPECT_EQ(out.clock, in.clock);
        EXPECT_EQ(out.ints, in.ints);
        EXPECT_EQ(out.doubles, in.doubles);
        EXPECT_EQ(out.text, in.text);
        EXPECT_EQ(out.bytes, in.bytes);
        // Floats must survive bit-exact, not just approximately — the
        // determinism contract crosses the wire here.
        ASSERT_EQ(out.floats.size(), in.floats.size());
        for (size_t i = 0; i < in.floats.size(); ++i) {
            uint32_t a = 0, b = 0;
            std::memcpy(&a, &in.floats[i], 4);
            std::memcpy(&b, &out.floats[i], 4);
            EXPECT_EQ(a, b) << "float bits differ at " << i;
        }
    }
}

TEST(Wire, EmptySectionsRoundTrip)
{
    Message in;
    in.type = MsgType::Heartbeat;
    const std::vector<uint8_t> frame = net::frame_message(in);
    Message out;
    size_t consumed = 0;
    ASSERT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::Ok);
    EXPECT_TRUE(out.ints.empty());
    EXPECT_TRUE(out.floats.empty());
    EXPECT_TRUE(out.doubles.empty());
    EXPECT_TRUE(out.text.empty());
    EXPECT_TRUE(out.bytes.empty());
}

TEST(Wire, EveryTruncationIsNeedMoreNeverACrash)
{
    const std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Push));
    for (size_t len = 0; len < frame.size(); ++len) {
        Message out;
        size_t consumed = 0;
        EXPECT_EQ(net::parse_frame(frame.data(), len, &out, &consumed),
                  WireStatus::NeedMore)
            << "prefix length " << len;
    }
}

TEST(Wire, RejectsBadMagic)
{
    std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Join));
    frame[0] ^= 0xFF;
    Message out;
    size_t consumed = 0;
    EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::BadMagic);
}

TEST(Wire, RejectsBadVersion)
{
    std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Join));
    frame[4] = 0xEE;  // Version word (LE) at bytes 4-5.
    frame[5] = 0xEE;
    Message out;
    size_t consumed = 0;
    EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::BadVersion);
}

TEST(Wire, RejectsBadType)
{
    for (uint16_t bad : {uint16_t{0},
                         static_cast<uint16_t>(net::kMaxMsgType + 1),
                         uint16_t{0xFFFF}}) {
        std::vector<uint8_t> frame =
            net::frame_message(full_message(MsgType::Join));
        frame[6] = static_cast<uint8_t>(bad);  // Type word at bytes 6-7.
        frame[7] = static_cast<uint8_t>(bad >> 8);
        Message out;
        size_t consumed = 0;
        EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), &out,
                                   &consumed),
                  WireStatus::BadType)
            << "type " << bad;
    }
}

TEST(Wire, RejectsOversizedPayloadBeforeAllocating)
{
    std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Push));
    const uint32_t huge = net::kMaxPayloadBytes + 1;
    std::memcpy(frame.data() + 8, &huge, 4);  // payload_len at bytes 8-11.
    Message out;
    size_t consumed = 0;
    // Only the header is needed for the verdict: a hostile length field
    // is rejected before any allocation, even with no payload in hand.
    EXPECT_EQ(net::parse_frame(frame.data(), net::kWireHeaderBytes, &out,
                               &consumed),
              WireStatus::Oversized);
}

TEST(Wire, RejectsPayloadSmallerThanMetadata)
{
    std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Join));
    const uint32_t tiny = 4;  // Below the fixed metadata block.
    std::memcpy(frame.data() + 8, &tiny, 4);
    Message out;
    size_t consumed = 0;
    EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::BadPayload);
}

TEST(Wire, RejectsSectionCountsThatDoNotTileThePayload)
{
    std::vector<uint8_t> frame =
        net::frame_message(full_message(MsgType::Push));
    // Inflate the int-section count (first count word of the payload
    // metadata) without supplying the bytes it claims.
    const size_t counts_at = net::kWireHeaderBytes + 4 + 8 + 8 + 8;
    uint32_t n_ints = 0;
    std::memcpy(&n_ints, frame.data() + counts_at, 4);
    ++n_ints;
    std::memcpy(frame.data() + counts_at, &n_ints, 4);
    Message out;
    size_t consumed = 0;
    EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::BadPayload);
}

// ----------------------------------------------------- push-delta fuzz --

/** A well-formed Int8 PushDelta over a 64-element model. */
Message
valid_push_delta(size_t dim = 64)
{
    CompressionConfig cfg;
    cfg.mode = Compression::Int8;
    cfg.quant_range = 16;
    std::vector<float> delta(dim);
    for (size_t i = 0; i < dim; ++i)
        delta[i] = 0.01f * static_cast<float>(i) - 0.3f;
    Message m = net::make_push_delta(/*device=*/3, /*steps=*/5,
                                     /*samples=*/20, 0.5, 0.75,
                                     encode_delta(cfg, std::move(delta)));
    m.from = 1;
    m.round = 2;
    m.seq = 4;
    return m;
}

TEST(Wire, PushDeltaRoundTripsAndDecodes)
{
    const Message in = valid_push_delta();
    const std::vector<uint8_t> frame = net::frame_message(in);
    Message out;
    size_t consumed = 0;
    ASSERT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
              WireStatus::Ok);
    std::vector<float> delta;
    ASSERT_EQ(net::decode_push_delta(out, 64, &delta), WireStatus::Ok);
    EXPECT_EQ(delta.size(), 64u);
    EXPECT_EQ(out.ints[0], 3);  // Provenance survives framing.
    EXPECT_EQ(out.doubles[1], 0.75);
}

TEST(Wire, PushDeltaRejectsTruncatedScaleTable)
{
    Message m = valid_push_delta();
    m.floats.pop_back();  // One absmax short of div_up(64, 16) == 4.
    EXPECT_EQ(net::validate_push_delta(m, 64), WireStatus::BadCodec);
}

TEST(Wire, PushDeltaRejectsNaNScales)
{
    Message m = valid_push_delta();
    m.floats[1] = std::nanf("");
    EXPECT_EQ(net::validate_push_delta(m, 64), WireStatus::BadCodec);
}

TEST(Wire, PushDeltaRejectsKBeyondRangeLength)
{
    CompressionConfig cfg;
    cfg.mode = Compression::TopK;
    cfg.topk_fraction = 0.25;
    std::vector<float> delta(64, 0.5f);
    Message m = net::make_push_delta(0, 1, 1, 0.0, 0.0,
                                     encode_delta(cfg, std::move(delta)));
    m.ints[5] = 65;  // Claims more kept elements than the model has.
    EXPECT_EQ(net::validate_push_delta(m, 64), WireStatus::BadCodec);
    m.ints[5] = -1;  // Negative counts are malformed, not huge.
    EXPECT_EQ(net::validate_push_delta(m, 64), WireStatus::BadCodec);
}

TEST(Wire, PushDeltaRejectsDimensionMismatchAndBadSections)
{
    Message m = valid_push_delta();
    EXPECT_EQ(net::validate_push_delta(m, 63), WireStatus::BadCodec);

    Message wrong_type = valid_push_delta();
    wrong_type.type = MsgType::Push;
    EXPECT_EQ(net::validate_push_delta(wrong_type, 64),
              WireStatus::BadType);

    Message bad_codec = valid_push_delta();
    bad_codec.ints[3] = 0;  // Compression::None never ships as PushDelta.
    EXPECT_EQ(net::validate_push_delta(bad_codec, 64),
              WireStatus::BadCodec);
    bad_codec.ints[3] = 99;  // Unknown codec id.
    EXPECT_EQ(net::validate_push_delta(bad_codec, 64),
              WireStatus::BadCodec);

    Message short_ints = valid_push_delta();
    short_ints.ints.pop_back();
    EXPECT_EQ(net::validate_push_delta(short_ints, 64),
              WireStatus::BadCodec);
}

TEST(Wire, PushDeltaFuzzedFramesNeverCrash)
{
    // Deterministic corruption sweep: every single-byte flip of a valid
    // PushDelta frame must land in a typed status — parse-level or
    // codec-level — never a crash, hang or over-read.
    const Message in = valid_push_delta();
    const std::vector<uint8_t> base = net::frame_message(in);
    int parsed_ok = 0, rejected = 0;
    for (size_t pos = 0; pos < base.size(); ++pos) {
        for (uint8_t flip : {0x01, 0x80, 0xFF}) {
            std::vector<uint8_t> frame = base;
            frame[pos] ^= flip;
            Message out;
            size_t consumed = 0;
            if (net::parse_frame(frame.data(), frame.size(), &out,
                                 &consumed) != WireStatus::Ok) {
                ++rejected;
                continue;
            }
            // Structurally valid frames still face codec validation.
            if (net::validate_push_delta(out, 64) == WireStatus::Ok)
                ++parsed_ok;
            else
                ++rejected;
        }
    }
    // The sweep must have exercised both outcomes: corruption in the
    // header/counts dies at parse, corruption in codec fields dies (or
    // survives, for value-only bits) at validation.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(parsed_ok, 0);
}

// ------------------------------------------------------------- loopback --

TEST(LoopbackVan, DeliversFifoWithBitExactPayloads)
{
    auto [a, b] = make_loopback_pair();
    for (int i = 0; i < 8; ++i) {
        Message m;
        m.type = MsgType::Push;
        m.seq = static_cast<uint64_t>(i);
        m.floats = {static_cast<float>(i) * 1.25f};
        ASSERT_TRUE(a->send(std::move(m)));
    }
    for (int i = 0; i < 8; ++i) {
        Message m;
        ASSERT_EQ(b->recv(&m, 1000), RecvStatus::Ok);
        EXPECT_EQ(m.seq, static_cast<uint64_t>(i)) << "FIFO violated";
        ASSERT_EQ(m.floats.size(), 1u);
        EXPECT_EQ(m.floats[0], static_cast<float>(i) * 1.25f);
    }
    EXPECT_GT(a->bytes_sent(), 0u);
    EXPECT_EQ(a->bytes_sent(), b->bytes_received());
}

TEST(LoopbackVan, RecvTimesOutThenStillWorks)
{
    auto [a, b] = make_loopback_pair();
    Message m;
    EXPECT_EQ(b->recv(&m, 10), RecvStatus::Timeout);
    Message ping;
    ping.type = MsgType::Heartbeat;
    ASSERT_TRUE(a->send(std::move(ping)));
    EXPECT_EQ(b->recv(&m, 1000), RecvStatus::Ok);
}

TEST(LoopbackVan, CloseUnblocksPeerWithClosed)
{
    auto [a, b] = make_loopback_pair();
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        a->close();
    });
    Message m;
    EXPECT_EQ(b->recv(&m, -1), RecvStatus::Closed);
    closer.join();
    Message late;
    late.type = MsgType::Heartbeat;
    EXPECT_FALSE(b->send(std::move(late)));
}

// -------------------------------------------------------------- sockets --

std::string
test_unix_path(const char *tag)
{
    return "/tmp/autofl_test_net_" + std::string(tag) + "_" +
        std::to_string(::getpid()) + ".sock";
}

TEST(SocketVan, UnixSocketRoundTripsWeightSizedMessages)
{
    const std::string path = test_unix_path("rt");
    const NetAddress addr = NetAddress::parse("unix:" + path);
    ASSERT_TRUE(addr.socket_scheme());
    std::string err;
    auto listener = Listener::listen(addr, &err);
    ASSERT_NE(listener, nullptr) << err;

    std::vector<float> weights(4096);
    for (size_t i = 0; i < weights.size(); ++i)
        weights[i] = static_cast<float>(i) * 0.001f - 2.0f;

    std::thread client([&] {
        std::string dial_err;
        auto van = net::dial(addr, 40, 25, &dial_err);
        ASSERT_NE(van, nullptr) << dial_err;
        Message m;
        m.type = MsgType::Push;
        m.seq = 9;
        m.floats = weights;
        ASSERT_TRUE(van->send(std::move(m)));
        Message echo;
        ASSERT_EQ(van->recv(&echo, 5000), RecvStatus::Ok);
        EXPECT_EQ(echo.type, MsgType::PullResp);
        EXPECT_EQ(echo.floats, weights);
    });

    auto server = listener->accept(5000);
    ASSERT_NE(server, nullptr);
    EXPECT_STREQ(server->kind(), "unix");
    Message m;
    ASSERT_EQ(server->recv(&m, 5000), RecvStatus::Ok);
    EXPECT_EQ(m.seq, 9u);
    ASSERT_EQ(m.floats.size(), weights.size());
    for (size_t i = 0; i < weights.size(); ++i) {
        uint32_t a = 0, b = 0;
        std::memcpy(&a, &weights[i], 4);
        std::memcpy(&b, &m.floats[i], 4);
        ASSERT_EQ(a, b) << "weights not bit-exact over the socket at " << i;
    }
    Message resp;
    resp.type = MsgType::PullResp;
    resp.floats = weights;
    ASSERT_TRUE(server->send(std::move(resp)));
    client.join();
    EXPECT_GT(server->bytes_received(),
              4 * weights.size());  // Frame overhead on top of payload.
    ::unlink(path.c_str());
}

TEST(SocketVan, TcpSocketRoundTrips)
{
    // A fixed high port can collide on a busy host; skip, don't flake.
    const int port = 34000 + static_cast<int>(::getpid() % 20000);
    const NetAddress addr =
        NetAddress::parse("tcp:127.0.0.1:" + std::to_string(port));
    std::string err;
    auto listener = Listener::listen(addr, &err);
    if (!listener)
        GTEST_SKIP() << "tcp port " << port << " unavailable: " << err;

    std::thread client([&] {
        std::string dial_err;
        auto van = net::dial(addr, 40, 25, &dial_err);
        ASSERT_NE(van, nullptr) << dial_err;
        Message m;
        m.type = MsgType::Heartbeat;
        m.from = 7;
        ASSERT_TRUE(van->send(std::move(m)));
        Message ack;
        ASSERT_EQ(van->recv(&ack, 5000), RecvStatus::Ok);
        EXPECT_EQ(ack.type, MsgType::HeartbeatAck);
    });
    auto server = listener->accept(5000);
    ASSERT_NE(server, nullptr);
    EXPECT_STREQ(server->kind(), "tcp");
    Message m;
    ASSERT_EQ(server->recv(&m, 5000), RecvStatus::Ok);
    EXPECT_EQ(m.from, 7);
    Message ack;
    ack.type = MsgType::HeartbeatAck;
    ASSERT_TRUE(server->send(std::move(ack)));
    client.join();
}

TEST(SocketVan, GarbageBytesSurfaceAsTypedErrorNotCrash)
{
    const std::string path = test_unix_path("garbage");
    const NetAddress addr = NetAddress::parse("unix:" + path);
    std::string err;
    auto listener = Listener::listen(addr, &err);
    ASSERT_NE(listener, nullptr) << err;

    // A hostile peer: raw socket, 64 bytes that are not a frame.
    std::thread attacker([&] {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                            sizeof(sa)),
                  0);
        std::vector<uint8_t> junk(64, 0xFF);
        ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
                  static_cast<ssize_t>(junk.size()));
        ::close(fd);
    });

    auto server = listener->accept(5000);
    ASSERT_NE(server, nullptr);
    Message m;
    EXPECT_EQ(server->recv(&m, 5000), RecvStatus::Error);
    EXPECT_NE(server->last_error().find("BadMagic"), std::string::npos)
        << server->last_error();
    attacker.join();
    ::unlink(path.c_str());
}

// ----------------------------------------------- postoffice & monitor --

TEST(Postoffice, ShardRangeMatchesShardedStoreLayout)
{
    for (size_t dim : {1u, 7u, 64u, 1000u}) {
        for (int shards : {1, 3, 8, 13}) {
            ShardedStore store(std::vector<float>(dim, 0.0f), shards);
            for (int s = 0; s < store.num_shards(); ++s) {
                const auto [begin, end] = Postoffice::shard_range(
                    s, store.dim(), store.num_shards());
                EXPECT_EQ(begin, store.shard_begin(s))
                    << "dim " << dim << " shards " << shards << " s " << s;
                EXPECT_EQ(end, store.shard_end(s));
            }
        }
    }
}

TEST(Postoffice, MarkDeadFiresExactlyOnce)
{
    Postoffice po;
    const int id = po.add_worker("w");
    EXPECT_TRUE(po.is_alive(id));
    EXPECT_TRUE(po.mark_dead(id));   // The Alive -> Dead transition...
    EXPECT_FALSE(po.mark_dead(id));  // ...is the dedup point.
    EXPECT_FALSE(po.is_alive(id));
    EXPECT_EQ(po.alive_count(), 0);
    EXPECT_EQ(po.total_joined(), 1);
}

TEST(Postoffice, BarrierQuorumShrinksWithDeaths)
{
    Postoffice po;
    const int w1 = po.add_worker("a");
    const int w2 = po.add_worker("b");
    const uint64_t id = po.open_barrier();
    EXPECT_FALSE(po.barrier_done());
    po.barrier_ack(w1, id);
    EXPECT_FALSE(po.barrier_done());  // w2 still owes an ack.
    po.mark_dead(w2);                 // A death must not wedge the barrier.
    EXPECT_TRUE(po.barrier_done());
}

TEST(Monitor, SilentWorkerIsDeclaredDeadOnce)
{
    Postoffice po;
    const int chatty = po.add_worker("chatty");
    const int silent = po.add_worker("silent");
    std::atomic<int> deaths{0};
    std::atomic<int> dead_node{-1};
    Monitor mon(po, 120, [&](int node, int) {
        ++deaths;
        dead_node = node;
    });
    mon.start();
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (deaths.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        mon.note_alive(chatty);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Grace period: keep the chatty worker beating and give a second
    // detection of the silent one every chance to (wrongly) fire.
    for (int i = 0; i < 15; ++i) {
        mon.note_alive(chatty);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    mon.stop();
    EXPECT_EQ(deaths.load(), 1);
    EXPECT_EQ(dead_node.load(), silent);
    EXPECT_TRUE(po.is_alive(chatty));
    EXPECT_FALSE(po.is_alive(silent));
}

// ------------------------------------------------------- config knobs --

/** Expect validate() to throw naming @p knob (PR-4 message style). */
void
expect_net_rejected(const NetConfig &net, const std::string &knob)
{
    try {
        net.validate("T.net");
        FAIL() << "expected std::invalid_argument naming " << knob;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
            << "message does not name the knob: " << e.what();
    }
}

TEST(NetConfigValidation, DisabledConfigIsAlwaysValid)
{
    NetConfig net;
    net.workers = -5;  // Nonsense everywhere, but the transport is off.
    net.heartbeat_interval_ms = 0;
    EXPECT_NO_THROW(net.validate("T.net"));
}

TEST(NetConfigValidation, RejectsUnparsableListenAddress)
{
    NetConfig net;
    net.listen = "carrier-pigeon:roof";
    expect_net_rejected(net, "listen");
}

TEST(NetConfigValidation, RejectsBadWorkerCount)
{
    NetConfig net;
    net.listen = "loopback";
    net.workers = 0;
    expect_net_rejected(net, "workers");
}

TEST(NetConfigValidation, RejectsSpawnCommandWithoutASocket)
{
    NetConfig net;
    net.listen = "loopback";
    net.spawn_cmd = "./worker";
    expect_net_rejected(net, "spawn_cmd");
}

TEST(NetConfigValidation, RejectsHeartbeatMisconfiguration)
{
    NetConfig net;
    net.listen = "loopback";
    net.heartbeat_interval_ms = 0;
    expect_net_rejected(net, "heartbeat_interval_ms");

    net = NetConfig{};
    net.listen = "loopback";
    net.heartbeat_interval_ms = 100;
    net.heartbeat_timeout_ms = 150;  // Below 2x: one late beat == death.
    expect_net_rejected(net, "heartbeat_timeout_ms");
}

TEST(NetConfigValidation, RejectsBadRetryAndTimeoutKnobs)
{
    NetConfig net;
    net.listen = "unix:/tmp/x.sock";
    net.connect_retry = 0;
    expect_net_rejected(net, "connect_retry");

    net = NetConfig{};
    net.listen = "unix:/tmp/x.sock";
    net.connect_retry_delay_ms = 0;
    expect_net_rejected(net, "connect_retry_delay_ms");

    net = NetConfig{};
    net.listen = "unix:/tmp/x.sock";
    net.join_timeout_ms = 0;
    expect_net_rejected(net, "join_timeout_ms");

    net = NetConfig{};
    net.listen = "unix:/tmp/x.sock";
    net.round_timeout_ms = 100;  // Below the heartbeat timeout.
    expect_net_rejected(net, "round_timeout_ms");
}

TEST(NetConfigValidation, MessagesCarryTheRejectedValue)
{
    NetConfig net;
    net.listen = "loopback";
    net.workers = -3;
    try {
        net.validate("T.net");
        FAIL();
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("got -3"), std::string::npos) << msg;
        EXPECT_NE(msg.find(">= 1"), std::string::npos) << msg;
    }
}

TEST(NetConfigValidation, PsConfigRejectsNetUnderSyncMode)
{
    PsConfig cfg;
    cfg.mode = SyncMode::Sync;
    cfg.net.listen = "loopback";
    try {
        cfg.validate("T");
        FAIL() << "expected rejection: net transport under Sync mode";
    } catch (const std::invalid_argument &e) {
        // The message must point at the fix, not just the problem.
        EXPECT_NE(std::string(e.what()).find("SemiAsync"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetConfigValidation, PsConfigRejectsNetWithPipelining)
{
    PsConfig cfg;
    cfg.mode = SyncMode::SemiAsync;
    cfg.pipeline_depth = 2;
    cfg.net.listen = "loopback";
    try {
        cfg.validate("T");
        FAIL() << "expected rejection: net transport with pipeline_depth 2";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("pipeline_depth"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetConfigValidation, ExperimentConfigPlumbsNetKnobs)
{
    ExperimentConfig cfg;
    cfg.net.listen = "loopback";
    cfg.sync_mode = SyncMode::Sync;
    try {
        cfg.validate();
        FAIL() << "expected rejection: ExperimentConfig.net under Sync";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("ExperimentConfig"),
                  std::string::npos)
            << e.what();
    }
    cfg.sync_mode = SyncMode::SemiAsync;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(NetConfigValidation, FlSystemRejectsFedlOverTheCluster)
{
    FlSystemConfig cfg;
    cfg.algorithm = Algorithm::Fedl;
    cfg.ps.mode = SyncMode::SemiAsync;
    cfg.ps.net.listen = "loopback";
    try {
        cfg.validate();
        FAIL() << "expected rejection: FEDL over the cluster";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("FEDL"), std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------ cluster server --

PsConfig
tiny_cluster_cfg()
{
    PsConfig cfg;
    cfg.mode = SyncMode::SemiAsync;
    // S=0: one commit at the round barrier, so every pull of the round
    // returns the round-start weights and the arithmetic below is exact.
    cfg.staleness_bound = 0;
    cfg.shards = 3;
    cfg.net.listen = "loopback";
    cfg.net.workers = 2;
    cfg.net.heartbeat_interval_ms = 25;
    cfg.net.heartbeat_timeout_ms = 500;
    cfg.net.round_timeout_ms = 30000;
    return cfg;
}

/** A worker thread whose "training" adds 1 to every pulled weight. */
std::thread
plus_one_worker(ClusterServer &server, const PsConfig &cfg,
                std::unique_ptr<ClusterWorker> *out)
{
    auto [server_end, worker_end] = make_loopback_pair();
    server.add_worker(std::move(server_end));
    *out = std::make_unique<ClusterWorker>(std::move(worker_end), cfg.net);
    ClusterWorker *w = out->get();
    return std::thread([w] {
        std::string err;
        ASSERT_TRUE(w->join(&err)) << err;
        w->run([](const WorkerJob &job) {
            LocalUpdate u;
            u.device_id = job.device_id;
            u.num_steps = 1;
            u.num_samples = 1;
            u.weights = job.weights;
            for (float &x : u.weights)
                x += 1.0f;
            return u;
        });
    });
}

TEST(ClusterServer, RoundAggregatesPushesFromLoopbackWorkers)
{
    const PsConfig cfg = tiny_cluster_cfg();
    const std::vector<float> init = {0.0f, 1.0f, 2.0f, 3.0f, 4.0f,
                                     5.0f, 6.0f, 7.0f};
    ClusterServer server(init, Algorithm::FedAvg, cfg);
    std::unique_ptr<ClusterWorker> w1, w2;
    std::thread t1 = plus_one_worker(server, cfg, &w1);
    std::thread t2 = plus_one_worker(server, cfg, &w2);

    std::vector<ClusterJob> jobs;
    for (int d = 0; d < 6; ++d)
        jobs.push_back(ClusterJob{d});
    const PsRoundStats stats = server.run_round(jobs, 0);
    EXPECT_EQ(stats.pushed, 6);
    EXPECT_EQ(stats.applied, 6);
    EXPECT_EQ(stats.evicted, 0);
    // Six identical (init + 1) updates average to exactly init + 1.
    const std::vector<float> after = server.store().read();
    ASSERT_EQ(after.size(), init.size());
    for (size_t i = 0; i < init.size(); ++i)
        EXPECT_EQ(after[i], init[i] + 1.0f) << "index " << i;

    EXPECT_TRUE(server.barrier(5000));
    server.shutdown();
    t1.join();
    t2.join();
    EXPECT_EQ(server.dead_evictions(), 0u);
}

TEST(ClusterServer, RangedPullReturnsExactShardSlice)
{
    const PsConfig cfg = tiny_cluster_cfg();
    std::vector<float> init(10);
    for (size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<float>(i);
    ClusterServer server(init, Algorithm::FedAvg, cfg);

    auto [server_end, worker_end] = make_loopback_pair();
    server.add_worker(std::move(server_end));
    Message join;
    join.type = MsgType::Join;
    ASSERT_TRUE(worker_end->send(std::move(join)));
    Message ack;
    ASSERT_EQ(worker_end->recv(&ack, 5000), RecvStatus::Ok);
    ASSERT_EQ(ack.type, MsgType::JoinAck);

    Message req;
    req.type = MsgType::PullReq;
    req.seq = 3;
    req.ints = {1, 3};  // Shards [1, 3) of 3.
    ASSERT_TRUE(worker_end->send(std::move(req)));
    Message resp;
    ASSERT_EQ(worker_end->recv(&resp, 5000), RecvStatus::Ok);
    ASSERT_EQ(resp.type, MsgType::PullResp);
    const auto [begin, _] =
        Postoffice::shard_range(1, init.size(), server.store().num_shards());
    const auto [__, end] =
        Postoffice::shard_range(2, init.size(), server.store().num_shards());
    ASSERT_EQ(resp.ints.size(), 2u);
    EXPECT_EQ(resp.ints[0], static_cast<int32_t>(begin));
    EXPECT_EQ(resp.ints[1], static_cast<int32_t>(end));
    ASSERT_EQ(resp.floats.size(), end - begin);
    for (size_t i = begin; i < end; ++i)
        EXPECT_EQ(resp.floats[i - begin], init[i]);
    worker_end->close();
    server.shutdown();
}

// ------------------------------------------------- FL over the cluster --

FlSystemConfig
cluster_system(const std::string &listen, int workers)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, 6};
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 80;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 12;
    cfg.seed = 23;
    cfg.threads = 4;
    cfg.ps.shards = 5;
    if (!listen.empty()) {
        cfg.ps.mode = SyncMode::SemiAsync;
        cfg.ps.staleness_bound = 0;
        cfg.ps.net.listen = listen;
        cfg.ps.net.workers = workers;
    }
    return cfg;
}

const std::vector<int> kRoundIds = {0, 3, 5, 7, 9, 11};

TEST(FlCluster, LoopbackSemiAsyncZeroBoundMatchesSyncBitForBit)
{
    // The PR's parity guarantee, extended over a transport: the same
    // job routed through Van messages and remote workers must produce
    // the very same bits as the in-process synchronous barrier. Pushes
    // carry driver-assigned seqs (the aggregator's sort key), clients
    // derive their RNG from (seed, device, round), and loopback moves
    // float vectors without serialization — so placement and timing
    // cannot leak into the weights.
    FlSystem sync(cluster_system("", 0));
    FlSystem clustered(cluster_system("loopback", 3));

    for (uint64_t round = 0; round < 3; ++round) {
        sync.run_round(kRoundIds, round);
        clustered.run_round(kRoundIds, round);
        const auto &a = sync.server().global_weights();
        const auto &b = clustered.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
    ASSERT_NE(clustered.cluster(), nullptr);
    EXPECT_EQ(clustered.cluster()->server().dead_evictions(), 0u);
}

TEST(FlCluster, LoopbackMatchesInProcessClassicAtEveryBound)
{
    // One commit discipline for both runtimes: rounds register with the
    // aggregator, every job pulls the round's launch snapshot and seqs
    // fix the batches. So past S=0 too, the loopback cluster commits the
    // very bits the in-process runtime does — and so do their stats.
    struct Runtime
    {
        const char *name;
        SyncMode mode;
        int bound;
    };
    for (const Runtime &rt : {Runtime{"SemiAsync S=1", SyncMode::SemiAsync, 1},
                              Runtime{"Async", SyncMode::Async, 0}}) {
        FlSystemConfig local_cfg = cluster_system("", 0);
        local_cfg.ps.mode = rt.mode;
        local_cfg.ps.staleness_bound = rt.bound;
        FlSystemConfig net_cfg = cluster_system("loopback", 3);
        net_cfg.ps.mode = rt.mode;
        net_cfg.ps.staleness_bound = rt.bound;
        FlSystem local(local_cfg);
        FlSystem clustered(net_cfg);
        ASSERT_NE(local.ps(), nullptr);
        ASSERT_NE(clustered.cluster(), nullptr);

        for (uint64_t round = 0; round < 3; ++round) {
            const PsRoundStats a = local.run_round(kRoundIds, round);
            const PsRoundStats b = clustered.run_round(kRoundIds, round);
            EXPECT_EQ(a.pushed, b.pushed) << rt.name;
            EXPECT_EQ(a.applied, b.applied) << rt.name;
            EXPECT_EQ(a.commits, b.commits) << rt.name;
            EXPECT_EQ(a.mean_staleness, b.mean_staleness) << rt.name;
            EXPECT_EQ(a.max_staleness, b.max_staleness) << rt.name;
            EXPECT_GT(b.commits, 1) << rt.name;
            const auto &x = local.server().global_weights();
            const auto &y = clustered.server().global_weights();
            ASSERT_EQ(x.size(), y.size());
            for (size_t i = 0; i < x.size(); ++i)
                ASSERT_EQ(x[i], y[i]) << rt.name << " round " << round
                                      << " index " << i;
        }
        EXPECT_EQ(clustered.cluster()->server().dead_evictions(), 0u);
    }
}

TEST(FlCluster, DeadWorkerBecomesEvictionNotHang)
{
    // Kill-a-client semantics: worker 0 wedges (heartbeats stop,
    // transport stays open — the hard failure mode) after one job. The
    // Monitor must declare it dead, its in-flight jobs must surface as
    // staleness evictions, and the round — and the next round, re-routed
    // around the corpse — must complete. The test's own deadline is the
    // ctest timeout; no sleeps tuned to luck.
    FlSystemConfig cfg = cluster_system("loopback", 2);
    cfg.ps.net.heartbeat_interval_ms = 25;
    cfg.ps.net.heartbeat_timeout_ms = 250;
    cfg.ps.net.round_timeout_ms = 60000;  // Backstop only; must not fire.
    FlSystem fl(cfg);
    ASSERT_NE(fl.cluster(), nullptr);
    std::string err;
    ASSERT_TRUE(fl.cluster()->start(&err)) << err;
    ASSERT_NE(fl.cluster()->loopback_worker(0), nullptr);
    fl.cluster()->loopback_worker(0)->halt_after_jobs(1);

    const PsRoundStats r0 = fl.run_round(kRoundIds, 0);
    // Worker 0 owned 3 of the 6 round-robin jobs and completed one.
    EXPECT_EQ(r0.applied, 4);
    EXPECT_EQ(r0.evicted, 2);
    EXPECT_EQ(fl.cluster()->server().dead_evictions(), 2u);
    EXPECT_EQ(fl.cluster()->server().postoffice().alive_count(), 1);

    // The next round routes every job to the survivor and loses none.
    const PsRoundStats r1 = fl.run_round(kRoundIds, 1);
    EXPECT_EQ(r1.applied, 6);
    EXPECT_EQ(r1.evicted, 0);

    // The model is still a model: training continued without worker 0.
    EXPECT_GT(fl.evaluate(), 0.0);
}

} // namespace
} // namespace autofl
