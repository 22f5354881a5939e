// Google-benchmark micro-benchmarks of the primitives the platform's
// hot loops are built on: GEMM, convolution, one local-training step of
// each task's primary model, one client of a set-up algorithm, sub-model
// gather/scatter, masked aggregation, and the cost model.
#include <benchmark/benchmark.h>

#include "algorithms/sheterofl.h"
#include "core/rng.h"
#include "data/loader.h"
#include "data/tasks.h"
#include "device/cost_model.h"
#include "device/device_profile.h"
#include "fl/aggregator.h"
#include "fl/client.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace {

using namespace mhbench;

// Pins the kernel backend for the duration of one benchmark: the *Naive
// variants re-run the same workloads through the retained reference kernels,
// so speedup ratios (fast vs naive) come from one binary and one build.
class BackendGuard {
 public:
  explicit BackendGuard(kernels::Backend b)
      : prev_(kernels::CurrentBackend()) {
    kernels::SetBackend(b);
  }
  ~BackendGuard() { kernels::SetBackend(prev_); }

 private:
  kernels::Backend prev_;
};

void MatmulBody(benchmark::State& state, kernels::Backend backend) {
  BackendGuard guard(backend);
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::Randn({n, n}, rng);
  const Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

void BM_Matmul(benchmark::State& state) {
  MatmulBody(state, kernels::Backend::kFast);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNaive(benchmark::State& state) {
  MatmulBody(state, kernels::Backend::kNaive);
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Conv workload: N=8, Cin=8, Cout=16, 8x8 spatial, 3x3 stride-1 pad-1
// (output spatial = input).  Forward MACs = N*Cout*H*W*Cin*3*3; FLOPs =
// 2x that.  Items-processed carries the FLOP count so bench_report.py
// reports real GFLOP/s for the conv entries too.
constexpr long long kConvForwardFlops = 2LL * 8 * 16 * 8 * 8 * 8 * 3 * 3;

void Conv2dForwardBody(benchmark::State& state, kernels::Backend backend) {
  BackendGuard guard(backend);
  Rng rng(2);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({8, 8, 8, 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
    kernels::ResetThreadScratch();
  }
  state.SetItemsProcessed(state.iterations() * kConvForwardFlops);
}

void BM_Conv2dForward(benchmark::State& state) {
  Conv2dForwardBody(state, kernels::Backend::kFast);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  Conv2dForwardBody(state, kernels::Backend::kNaive);
}
BENCHMARK(BM_Conv2dForwardNaive);

void Conv2dBackwardBody(benchmark::State& state, kernels::Backend backend) {
  BackendGuard guard(backend);
  Rng rng(3);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({8, 8, 8, 8}, rng);
  const Tensor g = Tensor::Randn(conv.Forward(x).shape(), rng);
  for (auto _ : state) {
    // Backward consumes the forward's cached columns, so every iteration
    // runs an untimed Forward first.
    state.PauseTiming();
    conv.Forward(x);
    conv.ZeroGrad();
    state.ResumeTiming();
    benchmark::DoNotOptimize(conv.Backward(g));
    kernels::ResetThreadScratch();
  }
  // Backward runs two GEMMs of the forward's shape (dW and dX).
  state.SetItemsProcessed(state.iterations() * 2 * kConvForwardFlops);
}

void BM_Conv2dBackward(benchmark::State& state) {
  Conv2dBackwardBody(state, kernels::Backend::kFast);
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dBackwardNaive(benchmark::State& state) {
  Conv2dBackwardBody(state, kernels::Backend::kNaive);
}
BENCHMARK(BM_Conv2dBackwardNaive);

// One local-training step of `task`'s full-width primary model on a
// 16-sample batch, as fl::TrainLocal runs it: scratch rewind, ZeroGrad,
// forward + cross-entropy, backward, gradient clipping and the SGD step.
// The model and batch are built once and one step warms the buffer pools,
// so the loop times the steady state of client training, elementwise
// layers included.
void BM_TrainStep(benchmark::State& state, const char* task) {
  data::TaskConfig cfg;
  cfg.train_samples = 16;
  cfg.test_samples = 16;
  cfg.num_clients = 1;
  const data::Task t = data::MakeTask(task, cfg);
  Rng rng(8);
  const auto tm = models::MakeTaskModels(task);
  models::BuiltModel built = tm.primary->Build(models::BuildSpec{}, rng);
  nn::Module& model = *built.net;
  Tensor x;
  std::vector<int> y;
  data::BatchIterator batches(t.train, 16, rng);
  batches.Next(x, y);
  const fl::LocalTrainOptions options;
  nn::Sgd opt(model, {options.lr, options.momentum, options.weight_decay});
  Tensor grad;
  auto step = [&] {
    kernels::ResetThreadScratch();
    opt.ZeroGrad();
    const double loss = nn::SoftmaxCrossEntropy(model.Forward(x), y, grad);
    model.Backward(grad);
    opt.ClipGradNorm(options.grad_clip);
    opt.Step();
    return loss;
  };
  step();
  for (auto _ : state) benchmark::DoNotOptimize(step());
}
BENCHMARK_CAPTURE(BM_TrainStep, cifar10, "cifar10");
BENCHMARK_CAPTURE(BM_TrainStep, agnews, "agnews");
BENCHMARK_CAPTURE(BM_TrainStep, harbox, "harbox");

void BM_GatherSubmodel(benchmark::State& state) {
  Rng rng(4);
  const Tensor w = Tensor::Randn({64, 64, 3, 3}, rng);
  const ops::DimIndices idx = {models::PrefixIndices(64, 32),
                               models::PrefixIndices(64, 32), std::nullopt,
                               std::nullopt};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::GatherDims(w, idx));
  }
}
BENCHMARK(BM_GatherSubmodel);

void BM_SubModelBuild(benchmark::State& state) {
  Rng rng(6);
  const auto tm = models::MakeTaskModels("cifar100");
  models::BuildSpec spec;
  spec.width_ratio = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm.primary->Build(spec, rng));
  }
}
BENCHMARK(BM_SubModelBuild);

void BM_MaskedAggregationRound(benchmark::State& state) {
  Rng rng(7);
  const auto tm = models::MakeTaskModels("cifar100");
  models::BuildSpec full;
  full.multi_head = true;
  auto global = tm.primary->Build(full, rng);
  fl::ParamStore store = fl::ParamStore::FromModule(*global.net);
  std::vector<models::BuiltModel> clients;
  for (double r : {0.25, 0.5, 1.0}) {
    models::BuildSpec spec;
    spec.width_ratio = r;
    clients.push_back(tm.primary->Build(spec, rng));
  }
  for (auto _ : state) {
    fl::MaskedAverager avg;
    for (auto& c : clients) {
      avg.Accumulate(fl::ExtractUpdate(*c.net, c.mapping, store, 10.0),
                     store);
    }
    avg.ApplyTo(store);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaskedAggregationRound);

// fleet-obs's merge: 60 SHeteroFL har-cnn uploads (ucihar) at widths
// 0.25/0.5/0.75/1.0, staged before the timed loop, then Accumulate x60 and
// ApplyTo on one averager that keeps its buffers across rounds.
void BM_MaskedAggregationRoundUcihar60(benchmark::State& state) {
  Rng rng(8);
  const auto tm = models::MakeTaskModels("ucihar");
  models::BuildSpec full;
  full.multi_head = true;
  auto global = tm.primary->Build(full, rng);
  fl::ParamStore store = fl::ParamStore::FromModule(*global.net);
  std::vector<fl::ClientUpdate> updates;
  for (int c = 0; c < 60; ++c) {
    models::BuildSpec spec;
    spec.width_ratio = 0.25 * (c % 4 + 1);
    auto built = tm.primary->Build(spec, rng);
    updates.push_back(fl::ExtractUpdate(*built.net, built.mapping, store,
                                        static_cast<double>(5 + c % 3)));
  }
  fl::MaskedAverager avg;
  for (auto _ : state) {
    for (const auto& u : updates) avg.Accumulate(u, store);
    avg.ApplyTo(store);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaskedAggregationRoundUcihar60)
    ->Name("BM_MaskedAggregationRound/ucihar60");

// fleet-obs's client: one SHeteroFL har-cnn client (ucihar, width 0.5) of
// 5 samples through RunClient on a set-up algorithm: check out and load its
// sub-model, train one local epoch, extract the upload.  The store never
// changes between iterations, as within one round.
void BM_RunClientUcihar(benchmark::State& state) {
  constexpr int kClients = 120;
  data::TaskConfig tcfg;
  tcfg.num_clients = kClients;
  tcfg.train_samples = 5 * kClients;
  tcfg.test_samples = 8;
  const data::Task task = data::MakeTask("ucihar", tcfg);
  algorithms::SHeteroFl alg(models::MakeTaskModels("ucihar").primary, 7);
  const fl::FlConfig cfg;
  fl::FlEngine engine(task, cfg,
                      fl::UniformCapacityAssignments(kClients, {0.5}), alg);
  const std::vector<data::Dataset>& shards = engine.context().shards;
  int client = 0;
  while (shards.at(static_cast<std::size_t>(client)).size() != 5) ++client;
  Rng rng(9);
  alg.Setup(engine.context(), rng);
  alg.BeginRound(1, {client});
  for (auto _ : state) {
    Rng client_rng(11);
    alg.RunClient(client, 1, client_rng);
  }
}
BENCHMARK(BM_RunClientUcihar)->Name("BM_RunClient/ucihar");

void BM_CostModel(benchmark::State& state) {
  const device::CostModel cm(device::PaperDesc("resnet101"));
  const device::DeviceProfile orin = device::JetsonOrinNx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.Cost("sheterofl", 0.5, orin));
  }
}
BENCHMARK(BM_CostModel);

}  // namespace

// BENCHMARK_MAIN() expanded so the run's JSON context records which
// micro-kernel ISA the runtime dispatch picked (bench_report.py copies it
// into BENCH_kernels.json; mhb_diff.py refuses cross-backend comparisons)
// and whether THIS binary was an optimized build.  The latter is the
// signal bench_report.py's debug refusal keys on: google-benchmark's own
// library_build_type describes the system libbenchmark, which can be a
// debug build even when the kernels under test are -O3.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("mhb_kernel_backend",
                              kernels::KernelBackendName());
#ifdef NDEBUG
  benchmark::AddCustomContext("mhb_build_type", "release");
#else
  benchmark::AddCustomContext("mhb_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
