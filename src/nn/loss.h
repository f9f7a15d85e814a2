/**
 * @file
 * Softmax cross-entropy loss with integer class labels.
 */
#ifndef AUTOFL_NN_LOSS_H
#define AUTOFL_NN_LOSS_H

#include <vector>

#include "tensor/tensor.h"

namespace autofl {

/**
 * Fused softmax + cross-entropy. forward() caches the probabilities so
 * backward() can produce the standard (p - onehot)/batch gradient.
 */
class SoftmaxCrossEntropy
{
  public:
    /**
     * @param logits {batch, classes} raw scores.
     * @param labels One class index per batch row.
     * @return Mean cross-entropy loss over the batch.
     */
    double forward(const Tensor &logits, const std::vector<int> &labels);

    /** Gradient of the mean loss w.r.t. the logits. */
    Tensor backward() const;

    /** Class probabilities from the last forward() call. */
    const Tensor &probs() const { return probs_; }

    /** Count of argmax-correct rows in the last forward() call. */
    int correct() const { return correct_; }

  private:
    Tensor probs_;
    std::vector<int> labels_;
    std::vector<double> exps_;  ///< One row's exp(logit - max) scratch.
    int correct_ = 0;
};

/** Argmax over each row of a {batch, classes} tensor. */
std::vector<int> argmax_rows(const Tensor &logits);

} // namespace autofl

#endif // AUTOFL_NN_LOSS_H
