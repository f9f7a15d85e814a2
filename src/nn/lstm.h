/**
 * @file
 * Single-layer LSTM with manual backpropagation through time.
 *
 * Input shape is {time, batch, in}; the layer emits the final hidden state
 * {batch, hidden} (the next-character model reads only the last step, and
 * stacked LSTMs use return_sequences to pass the full {time, batch, hidden}
 * activation tensor to the next recurrent layer).
 *
 * Only the true recurrence runs per timestep (the restructuring of
 * Appleyard, Kocisky & Blunsom, 2016). The input is already one
 * contiguous {time * batch, in} matrix, so its projection for every
 * timestep is one GEMM, Z = X Wx + b; each step then adds h_{t-1} Wh
 * (nothing at t = 0) and runs the fused gate kernel. forward() and
 * infer() share that routine and differ only in the gate kernel and in
 * which buffers they write, so an infer() between forward() and
 * backward() leaves the backward caches alone.
 *
 * Backward keeps only the gate backward and dh_{t-1} = dz_t Wh^T inside
 * the loop. The weight gradients then reduce over (time, batch) in one
 * GEMM each: dWx += X^T DZ, dWh += H_prev^T DZ, db += column sums of
 * DZ, and dX = DZ Wx^T is one GEMM too — skipped entirely when the
 * layer is the first of a model (backward_params()).
 */
#ifndef AUTOFL_NN_LSTM_H
#define AUTOFL_NN_LSTM_H

#include "nn/layer.h"

namespace autofl {

/** LSTM layer (gate order: input, forget, cell, output). */
class Lstm : public Layer
{
  public:
    /**
     * @param in Input feature width.
     * @param hidden Hidden state width.
     * @param return_sequences When true, output is {time, batch, hidden};
     *        otherwise the final hidden state {batch, hidden}.
     */
    Lstm(int in, int hidden, bool return_sequences = false);

    Tensor forward(Tensor x) override;
    Tensor infer(Tensor x) override;
    Tensor backward(const Tensor &grad_out) override;
    void backward_params(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&wx_, &wh_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dwx_, &dwh_, &db_}; }
    void init_weights(Rng &rng) override;
    std::vector<int> output_shape(const std::vector<int> &in) const override;
    double flops_per_sample(const std::vector<int> &in) const override;
    LayerKind kind() const override { return LayerKind::Recurrent; }
    std::string name() const override;

  private:
    /** One run's states as flat row blocks, one block per timestep. */
    struct Sequence
    {
        AlignedFloatVec z;  ///< Post-activation gates {time * batch, 4H}.
        AlignedFloatVec c;  ///< Cells {(time + 1) * batch, H}; block 0 = 0.
        AlignedFloatVec h;  ///< Hidden states {time * batch, H}.
    };

    int in_, hidden_;
    bool return_sequences_;
    Tensor wx_;  ///< {in, 4*hidden}
    Tensor wh_;  ///< {hidden, 4*hidden}
    Tensor b_;   ///< {4*hidden}
    Tensor dwx_, dwh_, db_;

    Tensor x_;          ///< forward()'s moved-in input, for dWx.
    Sequence train_;    ///< forward()'s states, for backward().
    Sequence scratch_;  ///< infer()'s states.
    AlignedFloatVec dz_;  ///< Backward's gate gradients {time * batch, 4H}.
    AlignedFloatVec dh_, dc_, dc_prev_;  ///< Backward's {batch, H} carries.

    /** The recurrence of forward() and infer(), run into @p s. */
    Tensor run(const Tensor &x, Sequence &s, bool training);

    /** BPTT on forward()'s caches; writes dX into @p dx unless null. */
    void bptt(const Tensor &grad_out, float *dx);
};

} // namespace autofl

#endif // AUTOFL_NN_LSTM_H
