#include "Inputs.h"

#include "mir/transforms/MirTransforms.h"
#include "support/StringUtils.h"

namespace perfbench {

using namespace mha;

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t deriveSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return rng.next();
}

std::string DesignPoint::key() const {
  return strfmt("%s/%s/ii=%lld,u=%lld,p=%lld,df=%d", spec->name.c_str(),
                flow::flowKindName(kind),
                static_cast<long long>(config.pipelineII),
                static_cast<long long>(config.unrollFactor),
                static_cast<long long>(config.partitionFactor),
                config.dataflow ? 1 : 0);
}

std::vector<DesignPoint> defaultCorpus() {
  std::vector<DesignPoint> points;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (flow::FlowKind kind :
         {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp}) {
      DesignPoint point;
      point.spec = &spec;
      point.config.pipelineII = 1;
      point.config.unrollFactor = 1;
      point.config.partitionFactor = 2;
      point.kind = kind;
      points.push_back(point);
    }
  return points;
}

const std::vector<LoopShape> &longLoopShapes() {
  static const std::vector<LoopShape> shapes = {
      {2048, 64}, {4096, 64}, {2048, 128}, {4096, 128}};
  return shapes;
}

namespace {

constexpr int64_t kTaps = 3;

/// A coefficient that no folding rule treats specially (never 0, +-1 or a
/// power of two), so every seed compiles to the same operation mix.
double coefficient(Rng &rng) {
  return 0.25 + 0.5 * double(1 + rng.below(1000)) / 1001.0 + 0.001;
}

std::unique_ptr<flow::KernelSpec> makeLongLoop(const std::string &name,
                                               LoopShape shape,
                                               std::vector<double> coeffs) {
  auto spec = std::make_unique<flow::KernelSpec>();
  spec->name = name;
  spec->description = strfmt("generated %lld-trip %lld-tap loop, unroll %lld",
                             static_cast<long long>(shape.trip),
                             static_cast<long long>(kTaps),
                             static_cast<long long>(shape.unroll));
  spec->bufferShapes = {{shape.trip + kTaps - 1}, {shape.trip}};
  spec->outputs = {1};
  spec->build = [name, shape, coeffs](mir::MContext &ctx,
                                      const flow::KernelConfig &cfg) {
    mir::OpBuilder b(ctx);
    mir::OwnedModule module = mir::OpBuilder::createModule();
    b.setInsertPoint(module.get().body());
    mir::FuncOp fn = b.createFunc(
        name, ctx.fnTy({ctx.memrefTy({shape.trip + kTaps - 1}, ctx.f64()),
                        ctx.memrefTy({shape.trip}, ctx.f64())},
                       {}));
    if (cfg.applyDirectives && cfg.partitionFactor > 1) {
      mir::addArrayPartitionDirective(fn, 0, 0, cfg.partitionFactor, "cyclic");
      mir::addArrayPartitionDirective(fn, 1, 0, cfg.partitionFactor, "cyclic");
    }
    b.setInsertPoint(fn.entryBlock());
    mir::Value *x = fn.arg(0), *y = fn.arg(1);
    mir::ForOp loop = b.affineFor(0, shape.trip);
    if (cfg.applyDirectives && cfg.pipelineII > 0)
      mir::setPipelineDirective(loop, cfg.pipelineII);
    if (cfg.applyDirectives && cfg.unrollFactor > 1)
      mir::setUnrollDirective(loop, cfg.unrollFactor);
    b.setInsertPointToLoopBody(loop);
    mir::Value *i = loop.inductionVar();
    mir::Value *acc = nullptr;
    for (int64_t t = 0; t < kTaps; ++t) {
      mir::AffineMap shifted(
          1, 0, {ctx.affineAdd(ctx.affineDim(0), ctx.affineConst(t))});
      mir::Value *term =
          b.binary(mir::ops::MulF, b.constantFloat(coeffs[t], ctx.f64()),
                   b.affineLoad(x, shifted, {i}));
      acc = acc ? b.binary(mir::ops::AddF, acc, term) : term;
    }
    b.affineStore(acc, y, mir::AffineMap::identity(ctx, 1), {i});
    b.setInsertPoint(fn.entryBlock());
    b.createReturn();
    return module;
  };
  spec->reference = [shape, coeffs](flow::Buffers &buf) {
    const std::vector<double> &x = buf[0];
    std::vector<double> &y = buf[1];
    for (int64_t i = 0; i < shape.trip; ++i) {
      double acc = coeffs[0] * x[i];
      for (int64_t t = 1; t < kTaps; ++t)
        acc = acc + coeffs[t] * x[i + t];
      y[i] = acc;
    }
  };
  return spec;
}

} // namespace

std::vector<std::unique_ptr<flow::KernelSpec>>
generateLongLoops(uint64_t seed) {
  Rng rng(deriveSeed(seed, 1));
  std::vector<std::unique_ptr<flow::KernelSpec>> out;
  for (size_t s = 0; s < longLoopShapes().size(); ++s) {
    std::vector<double> coeffs;
    for (int64_t t = 0; t < kTaps; ++t)
      coeffs.push_back(coefficient(rng));
    auto tag = static_cast<unsigned long long>(rng.below(0x10000));
    std::string name = strfmt("longloop_%04llx_%zu", tag, s);
    out.push_back(makeLongLoop(name, longLoopShapes()[s], std::move(coeffs)));
  }
  return out;
}

std::vector<DesignPoint> unrolledCorpus(
    const std::vector<std::unique_ptr<flow::KernelSpec>> &loops) {
  std::vector<DesignPoint> points;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    DesignPoint point;
    point.spec = &spec;
    point.config.pipelineII = 1;
    point.config.unrollFactor = 32;
    point.config.partitionFactor = 32;
    points.push_back(point);
  }
  for (size_t s = 0; s < loops.size(); ++s) {
    DesignPoint point;
    point.spec = loops[s].get();
    point.config.pipelineII = 1;
    point.config.unrollFactor = longLoopShapes()[s].unroll;
    point.config.partitionFactor = longLoopShapes()[s].unroll;
    points.push_back(point);
  }
  return points;
}

// --- serve-mix ---------------------------------------------------------

namespace {

constexpr int64_t kServeIIs[] = {0, 1, 2, 3};
constexpr int64_t kServeFactors[] = {1, 2, 4, 8};

template <typename T, size_t N> T pick(const T (&values)[N], Rng &rng) {
  return values[rng.below(N)];
}

/// A request with every knob of the serve grid drawn from `rng`.
serve::Request randomServeRequest(Rng &rng) {
  const std::vector<flow::KernelSpec> &kernels = flow::allKernels();
  serve::Request req;
  req.kernel = kernels[rng.below(kernels.size())].name;
  req.flowKind =
      rng.below(2) ? flow::FlowKind::HlsCpp : flow::FlowKind::Adaptor;
  req.config.pipelineII = pick(kServeIIs, rng);
  req.config.unrollFactor = pick(kServeFactors, rng);
  req.config.partitionFactor = pick(kServeFactors, rng);
  req.config.dataflow = rng.below(2) != 0;
  return req;
}

} // namespace

std::vector<serve::Request> ServeStream::drawBatch(Rng &rng) {
  // Every kernel in every batch, so every round does the same kind of
  // work; the seed only picks knobs and flows.
  std::vector<serve::Request> batch;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (size_t slot = 0; slot < kSlotsPerKernel; ++slot) {
      serve::Request req = randomServeRequest(rng);
      req.kernel = spec.name;
      batch.push_back(req);
    }
  return batch;
}

std::vector<serve::Request> ServeStream::warmupBatch() {
  const std::pair<int64_t, int64_t> iiAndUnroll[] = {{1, 1}, {2, 1}, {1, 8}};
  std::vector<serve::Request> batch;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (auto [ii, unroll] : iiAndUnroll) {
      serve::Request req;
      req.kernel = spec.name;
      req.config.pipelineII = ii;
      req.config.unrollFactor = unroll;
      batch.push_back(req);
    }
  return batch;
}

ServeStream::ServeStream(uint64_t seed, int client)
    : rng_(deriveSeed(seed, 100 + static_cast<uint64_t>(client))),
      client_(client) {}

void ServeStream::startRound() {
  std::vector<serve::Request> batch = drawBatch(rng_);
  round_ = batch;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    serve::Request req = randomServeRequest(rng_);
    req.kernel = spec.name;
    req.estimate = true;
    req.flowKind = flow::FlowKind::Adaptor; // estimation models this flow
    round_.push_back(req);
  }
  shuffle(round_, rng_);
  shuffle(batch, rng_);
  round_.insert(round_.end(), batch.begin(), batch.end());
  next_ = 0;
}

serve::Request ServeStream::next() {
  if (next_ == round_.size())
    startRound();
  serve::Request req = round_[next_++];
  req.id = strfmt("c%d-%lld", client_, static_cast<long long>(issued_++));
  return req;
}

std::string requestKey(const serve::Request &req) {
  return strfmt("%s/%s/ii=%lld,u=%lld,p=%lld,df=%d,est=%d", req.kernel.c_str(),
                flow::flowKindName(req.flowKind),
                static_cast<long long>(req.config.pipelineII),
                static_cast<long long>(req.config.unrollFactor),
                static_cast<long long>(req.config.partitionFactor),
                req.config.dataflow ? 1 : 0, req.estimate ? 1 : 0);
}

} // namespace perfbench
