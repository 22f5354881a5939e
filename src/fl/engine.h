// The federated execution engine: client sampling, local-training dispatch,
// simulated wall clock, and metric collection.  Algorithm behaviour is
// injected through the MhflAlgorithm interface.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "data/tasks.h"
#include "fl/client.h"
#include "obs/obs_config.h"
#include "obs/registry.h"

namespace mhbench::fl {

class SnapshotWriter;  // fl/checkpoint.h
class SnapshotReader;

enum class PartitionKind { kIid, kDirichlet };

enum class LrScheduleKind { kConstant, kStepDecay, kCosine };

struct FlConfig {
  int rounds = 40;
  double sample_fraction = 0.25;
  int min_sampled = 2;
  int local_epochs = 1;
  int batch_size = 16;
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  double grad_clip = 5.0;
  // Local optimizer (SGD for the CNN recipes, Adam for transformer tasks).
  nn::OptimizerKind optimizer = nn::OptimizerKind::kSgd;
  // Learning-rate schedule over rounds (applied to `lr`).
  LrScheduleKind lr_schedule = LrScheduleKind::kConstant;
  int lr_step = 50;          // step-decay period (rounds)
  double lr_gamma = 0.5;     // step-decay factor
  double lr_cosine_floor = 0.05;
  // Synchronous-round deadline in simulated seconds: sampled clients whose
  // compute+comm time exceeds it are stragglers — they are dropped from the
  // round and contribute no update (0 disables).  This is the failure mode
  // the paper's constraint cases are designed to prevent.
  double round_deadline_s = 0.0;
  int eval_every = 5;
  int eval_max_samples = 400;
  int stability_max_samples = 200;
  // Used only when the task is not naturally partitioned.
  PartitionKind partition = PartitionKind::kIid;
  double dirichlet_alpha = 0.5;
  std::uint64_t seed = 1;
  // Threads executing client work (local training, stability evaluation).
  // 1 = fully serial (the reference execution).  Any value produces
  // bit-identical RunResults: all order-sensitive randomness is drawn
  // serially before dispatch and updates are merged in dispatch order.
  int num_threads = 1;
  // Routes kernel-layer macro-tile parallelism (tensor/gemm.h) to the
  // engine's worker pool for the run's serial phases — aggregation, global
  // eval — where the single-threaded GEMM otherwise leaves workers idle.
  // Bit-identical on or off and at any thread count: the threaded GEMM's
  // tile ownership map never splits or reorders an accumulation.  No-op
  // when num_threads <= 1 (no pool exists).
  bool threaded_gemm = false;
  // Observability hooks (tracer / counter registry); all-null by default,
  // in which case instrumentation reduces to untaken branches.  Collection
  // never feeds back into execution, so enabling it cannot change results.
  obs::ObsConfig obs;
  // Checkpoint/resume (fl/checkpoint.h, DESIGN.md §5g).  checkpoint_every
  // > 0 writes <checkpoint_dir>/round_NNNNNN.mhbsnap after every N-th
  // round barrier, capturing the global store, all per-algorithm state,
  // the engine RNG stream, the round index/curve and the run's obs totals.
  // resume_path restores one such snapshot before the first round; with an
  // otherwise identical config the continued run is bit-identical to the
  // uninterrupted one at any thread count.
  int checkpoint_every = 0;
  std::string checkpoint_dir = "checkpoints";
  std::string resume_path;
};

// Everything an algorithm can see.  Owned by the engine; stable for the
// run's lifetime.
struct FlContext {
  const data::Task* task = nullptr;
  const FlConfig* config = nullptr;
  std::vector<data::Dataset> shards;           // per client
  std::vector<ClientAssignment> assignments;   // per client
  // The engine's worker pool (null at one thread).  Serial phases may fan
  // independent work out to it with core::ParallelFor, writing per-index
  // slots only; RunClient and ClientLogits already run inside a parallel
  // region, where a nested ParallelFor runs inline.
  core::ThreadPool* pool = nullptr;
  int num_clients() const { return static_cast<int>(shards.size()); }
  // Local training options; the learning rate carries the round's schedule
  // multiplier when `round` is given.
  LocalTrainOptions local_options(int round = -1) const;
  // Schedule multiplier for a round (1.0 for kConstant).
  double LrMultiplier(int round) const;
};

// Algorithm plug-in interface.  One instance per run.
//
// Threading contract: the engine runs each round in two phases.  Phase 1
// (serial) draws every order-sensitive random decision and calls BeginRound
// with the surviving participants in dispatch order.  Phase 2 may invoke
// RunClient concurrently, once per participant, each with a private Rng
// forked serially in phase 1.  Implementations must therefore stage each
// client's upload into a per-client buffer during RunClient and merge the
// buffers in the BeginRound participant order inside FinishRound (serial
// again) — merging in that fixed order is what keeps multi-threaded runs
// bit-identical to serial ones.  RunClient must not mutate state shared
// across clients; lazily-created per-client state must be created in
// BeginRound (or PrepareEvaluation for evaluation-only state).
class MhflAlgorithm {
 public:
  virtual ~MhflAlgorithm() = default;

  virtual std::string name() const = 0;

  // Called once before round 0.  `ctx` outlives the run.
  virtual void Setup(const FlContext& ctx, Rng& rng) = 0;

  // Called serially before a round's RunClient dispatches.  `participants`
  // holds the sampled clients that survived availability/straggler filtering,
  // in dispatch order (the order FinishRound must merge staged updates in).
  virtual void BeginRound(int round, const std::vector<int>& participants);

  // Local training for one sampled client.  May run concurrently with other
  // participants of the same round; see the class comment.
  virtual void RunClient(int client_id, int round, Rng& rng) = 0;

  // Server aggregation for the round (serial).
  virtual void FinishRound(int round, Rng& rng) = 0;

  // Called serially once before the engine evaluates ClientLogits for every
  // client, possibly concurrently.  Pre-create lazily-built eval state here.
  virtual void PrepareEvaluation();

  // Global-model logits (eval mode) for the global-accuracy metric.
  virtual Tensor GlobalLogits(const Tensor& x) = 0;

  // Personalized logits for one client (stability metric).  May be called
  // concurrently for distinct clients after PrepareEvaluation.
  virtual Tensor ClientLogits(int client_id, const Tensor& x) = 0;

  // Checkpoint hooks (fl/checkpoint.h).  SaveState serializes every field
  // that persists across round boundaries into the writer's open section;
  // LoadState restores it into a freshly Setup() instance (both called
  // only at round barriers, serially).  The defaults throw: an algorithm
  // without the hooks must fail a checkpointed run loudly rather than
  // resume with silently missing state.
  virtual void SaveState(SnapshotWriter& writer) const;
  virtual void LoadState(SnapshotReader& reader);
};

struct RoundRecord {
  int round = 0;
  double sim_time_s = 0.0;  // cumulative simulated time at evaluation
  double global_acc = 0.0;
};

struct RunResult {
  std::vector<RoundRecord> curve;
  double final_accuracy = 0.0;
  double total_sim_time_s = 0.0;
  // Sampled client-rounds dropped for exceeding the round deadline.
  int straggler_drops = 0;
  // Sampled client-rounds skipped because the device was offline.
  int offline_skips = 0;
  int total_participations = 0;
  std::vector<double> client_accuracies;  // per client, end of run

  // First cumulative simulated time at which accuracy reached `target`;
  // +inf when never reached.
  double TimeToAccuracy(double target) const;
  // Variance of client_accuracies (the paper's stability metric; lower is
  // more stable).
  double StabilityVariance() const;
  double MeanClientAccuracy() const;
};

class FlEngine {
 public:
  // `assignments` must be empty (defaults to full capacity) or have one
  // entry per client.
  FlEngine(const data::Task& task, FlConfig config,
           std::vector<ClientAssignment> assignments, MhflAlgorithm& algorithm);

  RunResult Run();

  const FlContext& context() const { return ctx_; }

 private:
  // One surviving sampled client of a round with its serially-forked Rng.
  struct Participant {
    int client_id;
    Rng rng;
  };

  // Serializes engine + algorithm + RNG + obs state after round
  // `next_round - 1`'s barrier into checkpoint_dir.
  void WriteCheckpoint(int next_round, double sim_time,
                       const RunResult& partial) const;
  // Records round `round`'s component hashes (RNG stream, auditable
  // counter/histogram totals, algorithm SaveState bytes) into
  // config_.obs.det_audit.  Called at the serial round barrier, after
  // EndRound published the round's counts (obs/det_audit.h).
  void AuditRound(int round) const;
  // Restores config_.resume_path into the freshly-Setup engine; fills the
  // partial result and simulated clock and returns the round to resume at.
  int RestoreCheckpoint(RunResult& result, double& sim_time);

  FlConfig config_;
  FlContext ctx_;
  MhflAlgorithm& algorithm_;
  Rng rng_;
  // Worker pool for client dispatch and stability evaluation; null when
  // config_.num_threads <= 1 (serial reference execution).
  std::unique_ptr<core::ThreadPool> pool_;
  // Obs totals at Run() entry.  Snapshots store per-run *deltas* relative
  // to these, so a registry shared across runs (the bench suites run a
  // baseline first) never double-counts on resume.
  std::map<std::string, std::int64_t> obs_base_counters_;
  std::map<std::string, obs::Registry::HistogramData> obs_base_hists_;
};

}  // namespace mhbench::fl
