/**
 * @file
 * Bounded-staleness semi-async aggregation over a ShardedStore.
 *
 * Client jobs pull the global weights and push their trained update; the
 * aggregator batches pushes and commits each batch against the store.
 * Commits are *striped*: the batch average is staged one store shard at
 * a time and applied under that shard's lock once the shard has absorbed
 * every earlier commit, so two consecutive commits wave through the
 * stripes in parallel (commit c+1 writes shard 0 while commit c is
 * still writing shard 1) yet every shard sees commits in exactly clock
 * order. A round's last commit (and, when pipelined, its first)
 * publishes an immutable StoreSnapshot for epoch-gated pulls and
 * concurrent evaluation.
 *
 * Commit rule (FedAvg family): with staleness factors f_j = (1+s_j)^-a
 * and masses e_j = f_j * n_j,
 *
 *     w <- (1 - lambda) * w + lambda * sum_j (e_j / E) u_j,
 *     lambda = E / N,  E = sum e_j,  N = sum n_j.
 *
 * When every update in the batch is fresh (s_j = 0), f_j = 1.0 and
 * lambda = 1.0 *exactly*, so the blend reduces to the identical
 * fedavg_combine arithmetic the synchronous Server runs — which is why
 * SemiAsync(S=0) reproduces synchronous FedAvg bit-for-bit.
 *
 * Batching is *structural*, one discipline for every runtime (the
 * in-process RoundPipeline at any depth and the cluster server alike):
 * a round registers its size up front, batch b of round r is seqs
 * [bT, (b+1)T) with T = ceil(K / (S+1)) (1 in Async mode), commits
 * retire in (round, batch) order, and an update's staleness is its
 * batch index. Every job of a round pulls the round's launch snapshot,
 * so batch b lands b own-round commits after that pull. Two runs with
 * the same seed therefore commit identical batches in identical order
 * whatever the thread count or the interleaving. A job that will never
 * push (its worker died) is dropped: it closes its batch like an
 * arrival and counts as evicted.
 */
#ifndef AUTOFL_PS_ASYNC_AGGREGATOR_H
#define AUTOFL_PS_ASYNC_AGGREGATOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fl/fl_types.h"
#include "ps/ps_config.h"
#include "ps/sharded_store.h"

namespace autofl {

/** One client push: the update plus its place in the round. */
struct PsPush
{
    LocalUpdate update;
    uint64_t seq = 0;  ///< Submission order within the round.
};

/** Structural layout of one round, fixed at registration. */
struct RoundPlan
{
    uint64_t round = 0;
    int expected = 0;         ///< Pushes the round will deliver.
    size_t threshold = 1;     ///< Batch size T = ceil(K / (S+1)).
    int num_batches = 0;      ///< ceil(expected / T); <= S+1.
    uint64_t base_clock = 0;  ///< Clock of the round's first commit.
};

/** Staleness-weighted, bounded-staleness update sink. */
class AsyncAggregator
{
  public:
    /**
     * @param store Global model store commits are applied to.
     * @param alg Aggregation algorithm (FEDL is rejected upstream).
     * @param cfg Mode, staleness bound, damping exponents.
     */
    AsyncAggregator(ShardedStore &store, Algorithm alg, const PsConfig &cfg);

    /** A commit's wave finished; its snapshot epoch is live. */
    using SnapshotHook = std::function<void(const StoreSnapshot &)>;

    /** A round's last batch committed. */
    using RetireHook = std::function<void(
        uint64_t round, const PsRoundStats &stats, uint64_t final_epoch)>;

    /**
     * Install the callbacks. Both are invoked from whichever thread
     * completed the triggering commit, with no aggregator lock held.
     * Without a snapshot hook no commit is snapshotted.
     */
    void set_hooks(SnapshotHook on_snapshot, RetireHook on_retire);

    /**
     * Register a round of @p expected_updates > 0 jobs. Rounds must be
     * registered in submission order; the returned plan fixes the
     * round's batch layout and commit-clock range, from which callers
     * derive their (structural, deterministic) pull epochs.
     */
    RoundPlan register_round(uint64_t round, int expected_updates);

    /**
     * Thread-safe push. Completing a batch parks it until its commit
     * clock is next to retire, then the depositing thread drives every
     * consecutively-ready commit through the striped wave (and the
     * retire hook, when the commit ends its round).
     */
    void push_pipelined(uint64_t round, PsPush p);

    /**
     * Give up on job @p seq of @p round: it counts as evicted and
     * closes its batch like an arrival would, so the round retires
     * without it. Same threading as push_pipelined.
     */
    void drop(uint64_t round, uint64_t seq);

    /** Logical commit clock (total commit slots consumed so far). */
    uint64_t clock() const;

    /** Largest staleness ever applied (property-test hook). */
    int lifetime_max_applied_staleness() const;

  private:
    /** A formed batch awaiting its turn in the commit order. */
    struct PendingCommit
    {
        uint64_t clock = 0;
        uint64_t round = 0;
        bool publish = false;  ///< Snapshot this commit's epoch.
        std::vector<LocalUpdate> updates;  ///< Empty: nothing to apply.
        std::vector<double> factors;
    };

    /** One batch's arrivals and drops, until it closes. */
    struct Bucket
    {
        std::vector<PsPush> arrived;
        int dropped = 0;
    };

    /** Bookkeeping for one in-flight round. */
    struct RoundCtx
    {
        RoundPlan plan;
        std::vector<Bucket> buckets;
        int batches_applied = 0;
        PsRoundStats stats;
        double staleness_sum = 0.0;
    };

    ShardedStore &store_;
    Algorithm alg_;
    PsConfig cfg_;

    mutable std::mutex mu_;

    std::map<uint64_t, RoundCtx> rounds_;
    std::map<uint64_t, PendingCommit> ready_;
    uint64_t next_base_clock_ = 0;
    uint64_t next_claim_ = 0;
    SnapshotHook on_snapshot_;
    RetireHook on_retire_;

    uint64_t clock_ = 0;
    int lifetime_max_staleness_ = 0;

    size_t threshold_for(int expected_updates) const;

    /**
     * Account job @p seq of @p round as arrived (@p p) or dropped
     * (null), form its batch's commit once every member is accounted
     * for, then drive the ready commits.
     */
    void deposit(uint64_t round, uint64_t seq, PsPush *p);
    void form_commit_locked(RoundCtx &ctx, int batch_index);
    void pump(std::unique_lock<std::mutex> &lk);
    void apply_commit(PendingCommit &pc);

    /**
     * The striped commit: stage the batch combine shard by shard and
     * apply each stage under the shard's turn-ordered lock, copying the
     * committed ranges into @p snap_out when non-null.
     */
    void apply_batch_striped(const std::vector<LocalUpdate> &updates,
                             const std::vector<double> &factors,
                             uint64_t turn, std::vector<float> *snap_out);
};

} // namespace autofl

#endif // AUTOFL_PS_ASYNC_AGGREGATOR_H
