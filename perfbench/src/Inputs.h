// Inputs.h - everything a workload feeds the program, derived from the
// workload seed alone.
//
// The program only ever sees the generated inputs: design points over the
// built-in kernels, benchmark-built long-trip loop kernels, and serve
// request lines. Equal seeds give equal inputs; the self-tests check it.
#pragma once

#include "flow/Flow.h"
#include "serve/Protocol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, bound).
  uint64_t below(uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t state_;
};

/// Mixes a workload seed with a stream label so independent streams of
/// one run (round orders, clients, searches) never share a sequence.
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/// One compile: a kernel, its directives and the bridge it takes.
struct DesignPoint {
  const mha::flow::KernelSpec *spec = nullptr;
  mha::flow::KernelConfig config;
  mha::flow::FlowKind kind = mha::flow::FlowKind::Adaptor;

  /// "kernel/flow/ii=I,u=U,p=P,df=D" - unique per point within a run.
  std::string key() const;
};

/// Seeded Fisher-Yates shuffle (a round's visiting order).
template <typename T> void shuffle(std::vector<T> &items, Rng &rng) {
  for (size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.below(i)]);
}

/// compile-default: every built-in kernel x {adaptor, hls-c++} at II=1,
/// U=1, P=2 (the paper's Table-4 corpus).
std::vector<DesignPoint> defaultCorpus();

/// The (trip count, unroll factor) shapes the long-trip loop generator
/// draws from. Each shape synthesizes in well under 0.3 s.
struct LoopShape {
  int64_t trip;
  int64_t unroll;
};
const std::vector<LoopShape> &longLoopShapes();

/// Builds one long-trip pipelined loop kernel per shape,
///   y[i] = c0*x[i] + c1*x[i+1] + c2*x[i+2],  i in [0, trip),
/// with pipeline II=1, the shape's unroll directive and cyclic partitions
/// of x and y by the unroll factor. The seed picks the coefficients and
/// the kernel names; the host reference mirrors the IR's evaluation order
/// so co-simulation is bit-exact.
std::vector<std::unique_ptr<mha::flow::KernelSpec>>
generateLongLoops(uint64_t seed);

/// compile-unrolled: every built-in kernel through the adaptor flow at
/// unroll = partition = 32, II=1, plus the generated long-trip kernels.
std::vector<DesignPoint>
unrolledCorpus(
    const std::vector<std::unique_ptr<mha::flow::KernelSpec>> &loops);

/// serve-mix request stream for one client connection, in rounds with the
/// phases of bench/serve_throughput, the repository's serve bench: a cold
/// phase of distinct design points (every built-in kernel in three knob
/// settings), then a warm phase that sends the identical requests again.
/// Where serve_throughput fixes the knobs, the seed draws them from the
/// serve knob grid, so every round brings first-time points. The cold
/// phase also carries one estimate-only request per kernel.
class ServeStream {
public:
  /// `client` selects the client's own request sequence.
  ServeStream(uint64_t seed, int client);

  /// The next request (ids are "c<client>-<n>").
  mha::serve::Request next();

  /// One round's compile requests: every built-in kernel in
  /// kSlotsPerKernel knob settings drawn from `rng`, flows drawn too.
  static std::vector<mha::serve::Request> drawBatch(Rng &rng);

  /// What the warm-up requests before the timed region: serve_throughput's
  /// own batch (adaptor flow, every kernel at II=1, at II=2 and at II=1
  /// with unroll 8), the same for every seed.
  static std::vector<mha::serve::Request> warmupBatch();

  /// serve_throughput's requests per kernel.
  static constexpr size_t kSlotsPerKernel = 3;

private:
  void startRound();

  Rng rng_;
  int client_;
  std::vector<mha::serve::Request> round_;
  size_t next_ = 0;
  int64_t issued_ = 0;
};

/// The request's design-point identity (kernel, flow, knobs, estimate),
/// independent of its id.
std::string requestKey(const mha::serve::Request &req);

} // namespace perfbench
