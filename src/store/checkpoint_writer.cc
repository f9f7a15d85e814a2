#include "store/checkpoint_writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

namespace autofl::store {

namespace {

/** "model-r<N>.snap" → N; false for any other file name. */
bool
artifact_file_round(const char *fname, uint64_t *round)
{
    static constexpr const char kPrefix[] = "model-r";
    static constexpr const char kSuffix[] = ".snap";
    const size_t len = std::strlen(fname);
    const size_t plen = sizeof(kPrefix) - 1;
    const size_t slen = sizeof(kSuffix) - 1;
    if (len <= plen + slen || std::strncmp(fname, kPrefix, plen) != 0 ||
        std::strcmp(fname + len - slen, kSuffix) != 0)
        return false;
    uint64_t r = 0;
    for (size_t i = plen; i < len - slen; ++i) {
        if (fname[i] < '0' || fname[i] > '9')
            return false;
        r = r * 10 + static_cast<uint64_t>(fname[i] - '0');
    }
    *round = r;
    return true;
}

} // namespace

CheckpointWriter::CheckpointWriter(std::string dir, uint64_t topology_hash,
                                   uint32_t shard_count,
                                   RetentionPolicy retention)
    : dir_(std::move(dir)), topology_hash_(topology_hash),
      shard_count_(shard_count), retention_(std::move(retention))
{
    // Best-effort create; a missing/unwritable directory surfaces as
    // IoError in stats() on the first write, never as a throw.
    ::mkdir(dir_.c_str(), 0755);
    std::sort(retention_.pinned.begin(), retention_.pinned.end());

    // Adopt artifacts a previous run left behind: resumed training must
    // count them toward keep-last-K, or a long stop/start cycle still
    // accumulates unboundedly.
    if (DIR *d = ::opendir(dir_.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            uint64_t r = 0;
            if (artifact_file_round(e->d_name, &r))
                kept_rounds_.push_back(r);
        }
        ::closedir(d);
        std::sort(kept_rounds_.begin(), kept_rounds_.end());
        stats_.deleted += apply_retention();  // Pre-thread: no lock needed.
    }
    thread_ = std::thread([this] { run(); });
}

CheckpointWriter::~CheckpointWriter()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

std::string CheckpointWriter::latest_path() const
{
    return dir_ + "/latest.snap";
}

std::string CheckpointWriter::artifact_path(uint64_t round) const
{
    char name[64];
    std::snprintf(name, sizeof name, "/model-r%llu.snap",
                  static_cast<unsigned long long>(round));
    return dir_ + name;
}

void CheckpointWriter::request(
    uint64_t round, uint64_t epoch,
    std::shared_ptr<const std::vector<float>> weights)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_)
            return;
        ++stats_.requested;
        if (round < newest_round_) {  // Out of order: see request().
            ++stats_.dropped;
            return;
        }
        newest_round_ = round;
        // Single pending slot: a newer checkpoint supersedes an
        // unstarted older one. The slow-disk failure mode is "fewer
        // artifacts", never "training waits".
        if (has_pending_)
            ++stats_.dropped;
        pending_ = Request{round, epoch, std::move(weights)};
        has_pending_ = true;
    }
    cv_.notify_one();
}

void CheckpointWriter::flush()
{
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return !has_pending_ && !writing_; });
}

CheckpointStats CheckpointWriter::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void CheckpointWriter::run()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return has_pending_ || stop_; });
        // Drain-on-shutdown: the destructor's stop still writes the
        // last accepted checkpoint, so "request then destroy" (the
        // end of every run) durably persists the final state.
        if (!has_pending_ && stop_)
            return;
        const Request req = std::move(pending_);
        has_pending_ = false;
        writing_ = true;
        lk.unlock();  // IO runs without the lock: request() stays wait-free.
        write_one(req);
        lk.lock();
        writing_ = false;
        done_cv_.notify_all();
    }
}

void CheckpointWriter::write_one(const Request &req)
{
    SnapshotMeta meta;
    meta.epoch = req.epoch;
    meta.round = req.round;
    meta.dim = req.weights->size();
    meta.topology_hash = topology_hash_;
    meta.shard_count = shard_count_;

    const std::string path = artifact_path(req.round);
    SnapshotStatus st = write_snapshot_file(
        path, meta, even_shard_ranges(meta.dim, shard_count_),
        req.weights->data());

    if (st == SnapshotStatus::Ok) {
        // Repoint latest.snap atomically: hard-link the new artifact
        // under a temp name, rename over latest. Either step failing
        // (or a crash between them) leaves latest pointing at some
        // complete artifact — never a torn one.
        const std::string latest = latest_path();
        const std::string tmp = latest + ".tmp";
        ::unlink(tmp.c_str());
        if (::link(path.c_str(), tmp.c_str()) != 0 ||
            ::rename(tmp.c_str(), latest.c_str()) != 0) {
            ::unlink(tmp.c_str());
            st = SnapshotStatus::IoError;
        }
    }

    uint64_t deleted = 0;
    if (st == SnapshotStatus::Ok) {
        kept_rounds_.insert(
            std::upper_bound(kept_rounds_.begin(), kept_rounds_.end(),
                             req.round),
            req.round);
        deleted = apply_retention();
    }

    std::lock_guard<std::mutex> lk(mu_);
    stats_.last_status = st;
    stats_.deleted += deleted;
    if (st == SnapshotStatus::Ok)
        ++stats_.written;
}

uint64_t CheckpointWriter::apply_retention()
{
    if (retention_.keep_last <= 0)
        return 0;

    // Pins are kept *on top of* the newest-K window: count only
    // unpinned artifacts against keep_last, delete the oldest unpinned
    // ones beyond it. latest.snap hard-links the newest round, which is
    // always inside the window, so deletions never invalidate it.
    size_t unpinned = 0;
    for (uint64_t r : kept_rounds_)
        if (!std::binary_search(retention_.pinned.begin(),
                                retention_.pinned.end(), r))
            ++unpinned;
    if (unpinned <= static_cast<size_t>(retention_.keep_last))
        return 0;

    uint64_t deleted = 0;
    size_t excess = unpinned - static_cast<size_t>(retention_.keep_last);
    std::vector<uint64_t> survivors;
    survivors.reserve(kept_rounds_.size());
    for (uint64_t r : kept_rounds_) {
        const bool pinned = std::binary_search(retention_.pinned.begin(),
                                               retention_.pinned.end(), r);
        if (excess > 0 && !pinned &&
            ::unlink(artifact_path(r).c_str()) == 0) {
            --excess;
            ++deleted;
        } else {
            survivors.push_back(r);
        }
    }
    kept_rounds_ = std::move(survivors);
    return deleted;
}

} // namespace autofl::store
