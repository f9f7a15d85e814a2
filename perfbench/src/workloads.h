/**
 * @file
 * The four named workloads. Each fills a Report with its end-to-end
 * metrics (Options::trace == false) or its per-layer metrics (true),
 * plus the output checks that make the run correct.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "context.h"

namespace perfbench {

/** CNN-MNIST, AutoFL, Sync barrier through run_experiment. */
void train_cnn_sync(const Options &opt, Report &rep);

/** LSTM on the pipelined ps runtime with queries beside training. */
void train_lstm_pipeline_serve(const Options &opt, Report &rep);

/** Registry cold start + a two-model ServingGateway, serving only. */
void serve_gateway_mix(const Options &opt, Report &rep);

/** LSTM through run_experiment over the loopback cluster with int8. */
void train_lstm_loopback_int8(const Options &opt, Report &rep);

/**
 * Kernel and nn-layer probes every traced run reports: GEMM at the CNN
 * conv and LSTM projection shapes, the int8 push codec, and per-model
 * forward/backward/infer times. @p lstm_rows is the LSTM projection
 * row count to probe besides the training batch (the mean coalesced
 * batch on the serving workload; 0 skips it).
 */
void layer_probes(Report &rep, int lstm_rows);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
