// Google-benchmark micro-benchmarks of the primitives the platform's
// hot loops are built on: GEMM, convolution, sub-model gather/scatter,
// masked aggregation, and the cost model.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "device/cost_model.h"
#include "device/device_profile.h"
#include "fl/aggregator.h"
#include "models/zoo.h"
#include "nn/conv.h"
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

// Threaded macro-tile GEMM at a given logical thread count T: a pool of
// T-1 workers plus the caller, mirroring the engine's ThreadPool sizing.
// T=1 installs no pool (serial fast path), so the /1 entry doubles as a
// no-overhead check against BM_Matmul.  bench_report.py pairs each
// /n/T entry against BM_Matmul/n and gates the speedup per thread count
// (entries where T exceeds the machine's CPUs are annotated and exempt).
void BM_MatmulThreaded(benchmark::State& state) {
  BackendGuard guard(kernels::Backend::kFast);
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads - 1);
  core::ThreadPool* prev = kernels::SetGemmThreadPool(pool.get());
  Rng rng(1);
  const Tensor a = Tensor::Randn({n, n}, rng);
  const Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  kernels::SetGemmThreadPool(prev);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulThreaded)->Args({256, 1})->Args({256, 2})->Args({256, 4});

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
  const Tensor y = conv.Forward(x);
  const Tensor g = Tensor::Randn(y.shape(), rng);
  for (auto _ : state) {
    conv.ZeroGrad();
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

void BM_ScatterAdd(benchmark::State& state) {
  Rng rng(5);
  Tensor dst({64, 64, 3, 3});
  const Tensor src = Tensor::Randn({32, 32, 3, 3}, rng);
  const ops::DimIndices idx = {models::PrefixIndices(64, 32),
                               models::PrefixIndices(64, 32), std::nullopt,
                               std::nullopt};
  for (auto _ : state) {
    ops::ScatterAddDims(dst, src, idx);
    benchmark::DoNotOptimize(dst);
  }
}
BENCHMARK(BM_ScatterAdd);

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
      avg.Accumulate(*c.net, c.mapping, 10.0, store);
    }
    avg.ApplyTo(store);
  }
}
BENCHMARK(BM_MaskedAggregationRound);

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
