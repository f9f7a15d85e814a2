/**
 * @file
 * Layer interface for the from-scratch NN library.
 *
 * Layers are stateful: forward() caches whatever backward() needs, so a
 * backward() call must follow the matching forward() (standard training
 * loop usage). Parameters and their gradients are exposed as flat lists
 * of Tensor pointers for the optimizer and for FL weight serialization.
 */
#ifndef AUTOFL_NN_LAYER_H
#define AUTOFL_NN_LAYER_H

#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace autofl {

/** Coarse layer kind used to build the paper's NN-feature state (Table 1). */
enum class LayerKind {
    Conv,      ///< Convolution layer (counts toward S_CONV).
    Fc,        ///< Fully-connected layer (counts toward S_FC).
    Recurrent, ///< Recurrent layer (counts toward S_RC).
    Other,     ///< Activation / pooling / reshape (not counted).
};

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer on a batch; caches activations for backward().
     * Takes the input by value: callers that are done with the
     * activation move it in, and layers move it into their backward
     * cache (or transform it in place) instead of deep-copying.
     */
    virtual Tensor forward(Tensor x) = 0;

    /**
     * Inference-only forward: numerically identical to forward() (same
     * kernels, same reduction order — bit-identical output on any
     * given arch variant) but skips the backward caches, so it never
     * grows per-layer state with the batch and may not be followed by
     * backward(). The serving plane (src/serve/) runs models through
     * this path. The default delegates to forward(); layers with
     * non-trivial caches override it.
     */
    virtual Tensor
    infer(Tensor x)
    {
        return forward(std::move(x));
    }

    /**
     * Back-propagate.
     * @param grad_out Gradient of the loss w.r.t. this layer's output.
     * @return Gradient of the loss w.r.t. this layer's input.
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /**
     * backward() for a caller that does not read the input gradient
     * (the first layer of a model): accumulates bit-identical parameter
     * gradients. Layers whose input gradient costs real work override
     * it to skip that work.
     */
    virtual void
    backward_params(const Tensor &grad_out)
    {
        backward(grad_out);
    }

    /** Trainable parameter tensors (possibly empty). */
    virtual std::vector<Tensor *> params() { return {}; }

    /** Gradient tensors, parallel to params(). */
    virtual std::vector<Tensor *> grads() { return {}; }

    /** Randomize parameters (He/Glorot-style per layer). */
    virtual void init_weights(Rng &rng) { (void)rng; }

    /** Zero all gradient tensors. */
    void
    zero_grad()
    {
        for (Tensor *g : grads())
            g->fill(0.0f);
    }

    /** Output shape for a given input shape (batch dim included). */
    virtual std::vector<int> output_shape(const std::vector<int> &in) const = 0;

    /**
     * Forward FLOPs for one sample of the given input shape. The simulator
     * multiplies by ~3x for forward+backward training cost.
     */
    virtual double flops_per_sample(const std::vector<int> &in) const = 0;

    /** Coarse kind for NN-feature extraction. */
    virtual LayerKind kind() const { return LayerKind::Other; }

    /** Human-readable name for debugging. */
    virtual std::string name() const = 0;
};

} // namespace autofl

#endif // AUTOFL_NN_LAYER_H
