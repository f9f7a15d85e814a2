#include "serve/dynamic_batcher.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "nn/loss.h"
#include "serve/model_service.h"

namespace autofl {

namespace {

/** Complete one request with a data-free status. */
void
finish(InferenceRequest &req, ReplyStatus status)
{
    InferenceReply reply;
    reply.status = status;
    reply.completed_at = std::chrono::steady_clock::now();
    req.promise.set_value(std::move(reply));
}

} // namespace

DynamicBatcher::Model::Model(ModelService &svc, const ServeConfig &c,
                             int axis, int rank)
    : service(svc), cfg(c), batch_axis(axis), batch_rank(rank),
      queue(c.queue_depth, c.shed, c.starvation_limit)
{
}

DynamicBatcher::DynamicBatcher(int workers)
    : workers_(workers < 1 ? 1 : workers)
{
}

DynamicBatcher::DynamicBatcher(ModelService &service, const ServeConfig &cfg)
    : DynamicBatcher(cfg.workers)
{
    add_model(service, cfg);
    start();
}

DynamicBatcher::~DynamicBatcher()
{
    shutdown();
}

int
DynamicBatcher::add_model(ModelService &service, const ServeConfig &cfg)
{
    cfg.validate("DynamicBatcher.add_model cfg");
    std::lock_guard<std::mutex> lk(mu_);
    assert(!started_ && "add_model must precede start()");
    models_.push_back(std::make_unique<Model>(
        service, cfg, model_batch_axis(service.workload()),
        static_cast<int>(model_batch_shape(service.workload(), 1).size())));
    return static_cast<int>(models_.size()) - 1;
}

void
DynamicBatcher::start()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        assert(!started_);
        assert(!models_.empty() && "start() needs at least one model");
        started_ = true;

        // Weighted slot guarantees: model i holds
        // max(1, floor(workers * w_i / sum_w)) of the shared dispatcher
        // slots whenever it has queued work. Every model gets at least
        // one — weights shape the split, they cannot silence a model.
        double sum_w = 0.0;
        for (const auto &m : models_)
            sum_w += m->cfg.weight;
        for (auto &m : models_) {
            const double share =
                static_cast<double>(workers_) * m->cfg.weight / sum_w;
            m->guarantee = share < 1.0 ? 1 : static_cast<int>(share);
        }
    }
    dispatchers_.reserve(static_cast<size_t>(workers_));
    for (int i = 0; i < workers_; ++i)
        dispatchers_.emplace_back([this] { dispatch_loop(); });
}

std::future<InferenceReply>
DynamicBatcher::submit(int model, Tensor rows, bool want_classes,
                       SubmitOptions opts)
{
    InferenceRequest req;
    std::future<InferenceReply> fut = req.promise.get_future();

    assert(model >= 0 && model < model_count());
    Model &m = *models_[static_cast<size_t>(model)];

    // Validate the shape up front: coalescing concatenates raw buffers
    // along the batch axis, so a tensor that does not fit the served
    // model must fail typed here, never reach a memcpy.
    const int n =
        rows.rank() == m.batch_rank ? rows.dim(m.batch_axis) : 0;
    if (n < 1 ||
        rows.shape() != model_batch_shape(m.service.workload(), n)) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++m.stats.submitted;
        }
        finish(req, ReplyStatus::BadRequest);
        return fut;
    }
    req.samples = n;
    req.rows = std::move(rows);
    req.want_classes = want_classes;
    req.priority = opts.priority;
    const uint64_t now = serve_now_us();
    // An explicit deadline wins; otherwise the model's configured
    // default SLO applies (0 = none).
    req.deadline_us = opts.deadline_us != 0
        ? opts.deadline_us
        : (m.cfg.default_deadline_us != 0
               ? now + m.cfg.default_deadline_us
               : 0);

    InferenceRequest evicted;
    bool has_evicted = false;
    bool was_closed = false;
    RequestQueue::Push outcome = RequestQueue::Push::Shed;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++m.stats.submitted;
        // The closed check and the push share one critical section: a
        // request must never enter a queue shutdown() has already
        // drained — its promise would never resolve.
        was_closed = closed_;
        if (!was_closed) {
            // Count admission BEFORE the push is visible: a dispatcher
            // may pop and complete the request the moment it lands, and
            // a concurrent stats reader must never see
            // completed > admitted. The optimistic increment is taken
            // back on refusal.
            ++m.stats.admitted;
            outcome = m.queue.push(req, now, evicted, has_evicted);
            switch (outcome) {
              case RequestQueue::Push::Admitted:
                if (has_evicted)
                    ++m.stats.shed;
                break;
              case RequestQueue::Push::Shed:
                --m.stats.admitted;
                ++m.stats.shed;
                break;
              case RequestQueue::Push::Expired:
                --m.stats.admitted;
                ++m.stats.deadline_shed;
                break;
            }
        }
    }
    if (was_closed) {
        finish(req, ReplyStatus::Shutdown);
        return fut;
    }
    switch (outcome) {
      case RequestQueue::Push::Admitted:
        if (has_evicted)
            finish(evicted, ReplyStatus::Shed);
        // notify_all, not notify_one: one shared CV serves both the
        // idle outer wait and the coalesce wait, so a single
        // notification could be swallowed by a coalesce-waiting
        // dispatcher whose own predicate is still false while an idle
        // dispatcher sleeps on.
        work_cv_.notify_all();
        break;
      case RequestQueue::Push::Shed:
        finish(req, ReplyStatus::Shed);
        break;
      case RequestQueue::Push::Expired:
        finish(req, ReplyStatus::DeadlineExceeded);
        break;
    }
    return fut;
}

int
DynamicBatcher::pick_model() const
{
    // Below-guarantee models with work always win the slot — that is
    // the isolation property: an overloaded neighbor saturating its own
    // share cannot take the slots this model is entitled to. Only when
    // no entitled model has work may a model borrow beyond its
    // guarantee (work-conserving); ties fall to the least loaded
    // relative to weight.
    int pick = -1;
    bool pick_entitled = false;
    double pick_load = 0.0;
    for (int i = 0; i < static_cast<int>(models_.size()); ++i) {
        const Model &m = *models_[static_cast<size_t>(i)];
        if (m.queue.empty())
            continue;
        const bool entitled = m.running < m.guarantee;
        const double load =
            static_cast<double>(m.running + 1) / m.cfg.weight;
        if (pick < 0 || (entitled && !pick_entitled) ||
            (entitled == pick_entitled && load < pick_load)) {
            pick = i;
            pick_entitled = entitled;
            pick_load = load;
        }
    }
    return pick;
}

void
DynamicBatcher::dispatch_loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    bool ran_batch = false;  // The last claim of this slot ran a batch.
    for (;;) {
        int idx = -1;
        const bool backlog = pick_model() >= 0;  // Queued while busy.
        work_cv_.wait(lk, [&] {
            return closed_ || (idx = pick_model()) >= 0;
        });
        if (closed_)
            return;  // Leftovers go to shutdown()'s drain, typed.
        Model &m = *models_[static_cast<size_t>(idx)];
        m.running += 1;  // Claim the slot before any waiting.

        // Coalesce. Rows that queued while this slot ran a batch have
        // waited already and dispatch at once, so under load batches
        // fill from the backlog, not from a wait. A slot that was idle
        // waits for batch_size rows, at most batch_timeout_us and at
        // most one measured batch service time: waiting longer would
        // cost its rows more than running one more batch does.
        if (!(ran_batch && backlog) && m.cfg.batch_timeout_us > 0 &&
            m.queue.queued_rows() < m.cfg.batch_size) {
            uint64_t wait_us = static_cast<uint64_t>(m.cfg.batch_timeout_us);
            if (m.ewma_us != 0)
                wait_us = std::min(wait_us, m.ewma_us);
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::microseconds(wait_us);
            work_cv_.wait_until(lk, deadline, [&] {
                return closed_ ||
                    m.queue.queued_rows() >= m.cfg.batch_size;
            });
        }
        if (closed_) {
            m.running -= 1;
            return;
        }

        std::vector<InferenceRequest> batch, infeasible;
        m.queue.pop_batch(batch, infeasible, m.cfg.batch_size,
                          serve_now_us(), m.ewma_us);
        m.stats.deadline_shed += infeasible.size();
        lk.unlock();

        // Shed the provably late ones without executing them.
        for (auto &req : infeasible)
            finish(req, ReplyStatus::DeadlineExceeded);

        uint64_t dur_us = 0;
        if (!batch.empty()) {
            const uint64_t t0 = serve_now_us();
            dispatch(m, batch);
            dur_us = serve_now_us() - t0;
        }

        lk.lock();
        ran_batch = !batch.empty();
        m.running -= 1;
        if (dur_us != 0) {
            // EWMA of batch service time: the feasibility estimate used
            // to shed requests that cannot finish before their
            // deadline. Full-batch durations make it conservative for
            // partial batches — sheds err toward firing only when the
            // deadline is truly hopeless or the backlog deep.
            m.ewma_us = m.ewma_us == 0 ? dur_us
                                       : (3 * m.ewma_us + dur_us) / 4;
        }
        // A dispatch may have freed guarantee headroom for another
        // model's waiting dispatcher; and infeasible-only pops consumed
        // queue entries others may be waiting to coalesce on.
        work_cv_.notify_all();
    }
}

void
DynamicBatcher::dispatch(Model &m, std::vector<InferenceRequest> &batch)
{
    assert(!batch.empty());
    const SnapshotHandle snap = m.service.acquire();
    if (!snap.valid()) {
        for (auto &req : batch)
            finish(req, ReplyStatus::NoModel);
        return;
    }

    // Coalesce every request's samples into one model-ready tensor
    // along the workload's batch axis (axis 0 for the image workloads;
    // the LSTM's batch_x layout is time-major {seq, batch, vocab}, so
    // its samples concatenate along axis 1). All requests target the
    // same architecture: every dim but the batch axis must agree.
    // Sample counts are taken up front — the single-request fast path
    // moves the tensor out.
    const int axis = m.batch_axis;
    std::vector<int> counts;
    counts.reserve(batch.size());
    int total = 0;
    for (const auto &req : batch) {
        assert(req.samples == req.rows.dim(axis));
        counts.push_back(req.samples);
        total += req.samples;
    }
    Tensor big;
    if (batch.size() == 1) {
        big = std::move(batch[0].rows);
    } else {
        std::vector<int> shape = batch[0].rows.shape();
        // outer: dims before the batch axis (the LSTM's time steps);
        // inner: elements per sample per outer index.
        size_t outer = 1;
        for (int d = 0; d < axis; ++d)
            outer *= static_cast<size_t>(shape[static_cast<size_t>(d)]);
        size_t inner = 1;
        for (int d = axis + 1; d < static_cast<int>(shape.size()); ++d)
            inner *= static_cast<size_t>(shape[static_cast<size_t>(d)]);
        shape[static_cast<size_t>(axis)] = total;
        big = Tensor(std::move(shape));
        for (size_t o = 0; o < outer; ++o) {
            size_t off = 0;  // Sample offset within this outer index.
            for (size_t r = 0; r < batch.size(); ++r) {
                const Tensor &src = batch[r].rows;
                const size_t n = static_cast<size_t>(counts[r]);
                std::memcpy(
                    big.data() +
                        (o * static_cast<size_t>(total) + off) * inner,
                    src.data() + o * n * inner, n * inner * sizeof(float));
                off += n;
            }
        }
    }

    // One inference pass over the coalesced batch; forward() claims a
    // free engine slot (waiting on the pool's condvar under load).
    Tensor logits = m.service.engine().forward(snap, std::move(big));
    const int classes = logits.dim(-1);

    // Count before fulfilling any promise: a caller whose future just
    // resolved may read the stats immediately.
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++m.stats.batches;
        m.stats.batched_rows += static_cast<uint64_t>(total);
        m.stats.completed += batch.size();
    }

    // Split the logits back per request, in scheduling order.
    const auto done = std::chrono::steady_clock::now();
    int row = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        InferenceRequest &req = batch[i];
        const int n = counts[i];
        InferenceReply reply;
        reply.status = ReplyStatus::Ok;
        reply.epoch = snap.epoch();
        reply.batch_rows = total;
        reply.completed_at = done;
        reply.logits = Tensor({n, classes});
        std::memcpy(reply.logits.data(),
                    logits.data() +
                        static_cast<size_t>(row) *
                            static_cast<size_t>(classes),
                    static_cast<size_t>(n) * static_cast<size_t>(classes) *
                        sizeof(float));
        if (req.want_classes)
            reply.classes = argmax_rows(reply.logits);
        req.promise.set_value(std::move(reply));
        row += n;
    }
}

void
DynamicBatcher::shutdown()
{
    // Serialized, not merely flagged: a second caller (say the
    // destructor racing an explicit stop_serving) must not return
    // while the first is still joining dispatchers.
    std::lock_guard<std::mutex> slk(shutdown_mu_);
    if (stopped_)
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : dispatchers_)
        t.join();
    // Whatever the dispatchers did not drain fails typed, not silently.
    std::vector<InferenceRequest> leftovers;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &m : models_)
            for (auto &req : m->queue.drain())
                leftovers.push_back(std::move(req));
    }
    for (auto &req : leftovers)
        finish(req, ReplyStatus::Shutdown);
    stopped_ = true;
}

ServeStats
DynamicBatcher::stats(int model) const
{
    assert(model >= 0 && model < model_count());
    std::lock_guard<std::mutex> lk(mu_);
    return models_[static_cast<size_t>(model)]->stats;
}

int
DynamicBatcher::model_count() const
{
    return static_cast<int>(models_.size());
}

} // namespace autofl
