/**
 * @file
 * CheckpointWriter: asynchronous, double-buffered artifact writer for
 * the training commit path.
 *
 * The commit path (AsyncAggregator striped commits / RoundPipeline
 * retirement) must never block on disk, so request() only hands the
 * writer a refcounted weight snapshot and returns. A background
 * thread serialises and durably writes it (temp + fsync + atomic
 * rename, see write_snapshot_file). The hand-off is double-buffered
 * with a single pending slot: if a new checkpoint arrives while the
 * previous one is still being written, the *unstarted* pending one is
 * replaced (and counted in stats().dropped) — the artifact on disk is
 * always some complete recent state, and a slow disk degrades
 * checkpoint frequency, never training throughput.
 *
 * Each checkpoint is written to "model-r<round>.snap" in the
 * configured directory, then "latest.snap" is atomically repointed at
 * it (link + rename), so a resuming process can always open
 * "latest.snap" and crash at any instant leaves both names valid.
 *
 * IO failures are recorded in stats().last_status — training never
 * throws because a disk filled up.
 */
#ifndef AUTOFL_STORE_CHECKPOINT_WRITER_H
#define AUTOFL_STORE_CHECKPOINT_WRITER_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/snapshot.h"

namespace autofl::store {

/** Counters for tests / benches; a snapshot, not a live view. */
struct CheckpointStats
{
    uint64_t requested = 0;  ///< request() calls before shutdown.
    uint64_t written = 0;    ///< Artifacts durably on disk.
    uint64_t dropped = 0;    ///< Superseded or stale, never written.
    uint64_t deleted = 0;    ///< Artifacts removed by retention.
    SnapshotStatus last_status = SnapshotStatus::Ok;  ///< Last write outcome.
};

/**
 * What the writer keeps on disk. Without a policy every
 * "model-r<N>.snap" accumulates forever; production wants a bounded
 * window of recent rounds plus explicitly pinned epochs (the registry's
 * "pin" manifest lines — see ModelRegistry).
 */
struct RetentionPolicy
{
    /**
     * Keep the newest K artifacts by round. 0 (the default) keeps
     * everything — the pre-retention behavior. The artifact
     * "latest.snap" links to is always among the kept set (it is the
     * newest by construction).
     */
    int keep_last = 0;

    /** Rounds retention must never delete (pinned registry versions). */
    std::vector<uint64_t> pinned;
};

class CheckpointWriter
{
  public:
    /**
     * @param dir            Artifact directory (created if absent).
     * @param topology_hash  Stamped into every header.
     * @param shard_count    Store stripe count recorded in the shard
     *                       table (>= 1).
     * @param retention      Keep-last-K + pins; applied after every
     *                       successful write, and at construction over
     *                       artifacts a previous run left behind.
     */
    CheckpointWriter(std::string dir, uint64_t topology_hash,
                     uint32_t shard_count, RetentionPolicy retention = {});

    /** Drains the pending checkpoint (if any), then joins. */
    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /**
     * Enqueue the state after round @p round at store epoch @p epoch.
     * Never blocks on IO: replaces any unstarted pending checkpoint
     * (counted as dropped). A round older than the newest accepted one
     * is dropped, as it would move latest.snap backwards: retirement
     * hooks of consecutive pipelined rounds may race. @p weights is
     * shared zero-copy with the caller — typically the pipeline's own
     * retained history snapshot.
     */
    void request(uint64_t round, uint64_t epoch,
                 std::shared_ptr<const std::vector<float>> weights);

    /** Block until every accepted checkpoint is written or dropped. */
    void flush();

    CheckpointStats stats() const;

    /** "<dir>/latest.snap" — what a resuming process should open. */
    std::string latest_path() const;
    /** "<dir>/model-r<round>.snap". */
    std::string artifact_path(uint64_t round) const;

  private:
    struct Request
    {
        uint64_t round = 0;
        uint64_t epoch = 0;
        std::shared_ptr<const std::vector<float>> weights;
    };

    void run();
    void write_one(const Request &req);
    /**
     * Delete unpinned artifacts beyond keep_last (writer thread / ctor
     * only — kept_rounds_ is single-owner). Returns how many were
     * removed; the caller folds that into stats_ under mu_.
     */
    uint64_t apply_retention();

    const std::string dir_;
    const uint64_t topology_hash_;
    const uint32_t shard_count_;
    RetentionPolicy retention_;        ///< pinned sorted in ctor.
    std::vector<uint64_t> kept_rounds_;  ///< Artifacts on disk, ascending.

    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< Signals the writer thread.
    std::condition_variable done_cv_;  ///< Signals flush() waiters.
    Request pending_;                  ///< Valid iff has_pending_.
    bool has_pending_ = false;
    uint64_t newest_round_ = 0;  ///< Newest accepted round.
    bool writing_ = false;
    bool stop_ = false;
    CheckpointStats stats_;

    std::thread thread_;
};

} // namespace autofl::store

#endif // AUTOFL_STORE_CHECKPOINT_WRITER_H
