/**
 * @file
 * Sequential model container plus flat weight (de)serialization used by
 * the federated averaging server.
 */
#ifndef AUTOFL_NN_SEQUENTIAL_H
#define AUTOFL_NN_SEQUENTIAL_H

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace autofl {

/** Per-model structural profile consumed by the AutoFL state encoder. */
struct NnProfile
{
    std::string name;            ///< Workload name, e.g. "CNN-MNIST".
    int conv_layers = 0;         ///< Count of convolution layers (S_CONV).
    int fc_layers = 0;           ///< Count of fully-connected layers (S_FC).
    int rc_layers = 0;           ///< Count of recurrent layers (S_RC).
    double flops_per_sample = 0; ///< Forward FLOPs per training sample.
    double model_bytes = 0;      ///< Serialized weight payload size.
    double arithmetic_intensity = 0; ///< FLOPs per parameter byte touched.

    /**
     * Fraction of execution that is memory-bandwidth bound, derived from
     * the per-layer-kind FLOP mix (recurrent layers stream state and run
     * GEMV-shaped work; convolutions reuse weights heavily). Drives the
     * tier-gap narrowing the paper reports for RC-heavy models.
     */
    double mem_bound_frac = 0;
};

/** Ordered stack of layers behaving as one differentiable model. */
class Sequential
{
  public:
    Sequential() = default;

    // Models own their layers; moving is fine, copying is not.
    Sequential(const Sequential &) = delete;
    Sequential &operator=(const Sequential &) = delete;
    Sequential(Sequential &&) = default;
    Sequential &operator=(Sequential &&) = default;

    /** Append a layer (builder style). */
    Sequential &add(std::unique_ptr<Layer> layer);

    /** Convenience: construct the layer in place. */
    template <typename L, typename... Args>
    Sequential &
    emplace(Args &&...args)
    {
        return add(std::make_unique<L>(std::forward<Args>(args)...));
    }

    /** Initialize every layer's weights from the RNG. */
    void init_weights(Rng &rng);

    /** Forward through all layers (activations move layer to layer). */
    Tensor forward(Tensor x);

    /**
     * Inference-only forward: bit-identical to forward() on a given
     * arch variant, but no layer retains backward state (the serving
     * plane's entry point; backward() must not follow).
     */
    Tensor infer(Tensor x);

    /**
     * Backward through all layers, accumulating parameter gradients.
     * The first layer runs backward_params(): nothing reads the
     * model's input gradient, so it is never computed.
     */
    void backward(const Tensor &grad_out);

    /** Zero all parameter gradients. */
    void zero_grad();

    /** All parameter tensors in layer order. */
    std::vector<Tensor *> params();

    /** All gradient tensors in layer order. */
    std::vector<Tensor *> grads();

    /** Total number of scalar parameters. */
    size_t num_params() const;

    /** Copy all parameters into one flat vector (FL gradient payload). */
    std::vector<float> flat_weights() const;

    /** Load parameters from a flat vector produced by flat_weights(). */
    void set_flat_weights(const std::vector<float> &w);

    /**
     * Same, from a raw flat buffer of @p n floats — the zero-copy
     * entry point for weights that live outside a vector (an mmap'd
     * snapshot artifact). @p n must equal num_params() (asserted).
     */
    void set_flat_weights(const float *w, size_t n);

    /** Per-sample forward FLOPs for the given single-sample input shape. */
    double flops_per_sample(std::vector<int> in_shape) const;

    /** Structural profile (layer-kind counts, FLOPs, bytes). */
    NnProfile profile(const std::string &name,
                      const std::vector<int> &in_shape) const;

    /** Layer access for tests. */
    size_t num_layers() const { return layers_.size(); }
    Layer &layer(size_t i) { return *layers_[i]; }
    const Layer &layer(size_t i) const { return *layers_[i]; }

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace autofl

#endif // AUTOFL_NN_SEQUENTIAL_H
