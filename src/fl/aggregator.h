// Coordinate-wise masked federated averaging.
//
// Clients hold different sub-tensors of the global parameters; the server
// averages each coordinate over exactly the clients that trained it
// (HeteroFL-style) and leaves untouched coordinates at their previous
// value.  This one primitive implements the aggregation of FedAvg, Fjord,
// SHeteroFL, FedRolex, DepthFL, InclusiveFL and FeDepth.
//
// Everything is flat: an upload names its coordinates as runs of the
// reference store's flat layout (ParamStore::FlatOffset), and the
// averager keeps one sum and one weight per layout coordinate, so a merge
// is one pass over runs that looks up no names and allocates nothing once
// the averager has seen the layout.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/param_store.h"
#include "tensor/ops.h"

namespace mhbench::fl {

// One client's staged upload: its trained parameters and the global
// coordinates they belong to.  Extracted on the client's (possibly
// concurrent) thread; accumulated serially.  `values` is a plain vector,
// not a Tensor, so a buffer made on a pool worker and freed on the merging
// thread never enters that thread's tensor pool.
struct ClientUpdate {
  // Runs of the reference store's flat layout, in `values` order, with
  // adjacent runs merged; their lengths sum to values.size().
  std::vector<ops::CoordRun> runs;
  // The client's parameters, concatenated in mapping order.
  std::vector<Scalar> values;
  double weight = 0.0;

  bool empty() const { return values.empty(); }
};

// Copies a trained model's parameters into a staged update and resolves
// the global coordinates `mapping` gives them in `reference`'s layout.
// Throws Error on a mapping that does not fit the model or the store
// (order, index range, empty index list, or a parameter whose shape is
// not the selection's).  Writes only the returned update and reads
// `reference`, which must not change while clients run, so concurrent
// extraction across distinct models is safe.
ClientUpdate ExtractUpdate(nn::Module& model,
                           const models::ParamMapping& mapping,
                           const ParamStore& reference, double weight);

class MaskedAverager {
 public:
  MaskedAverager() = default;

  // Adds one client's staged update: sum += w * value and weight += w at
  // every coordinate it covers.  `update.weight` is typically the client's
  // sample count.  The buffers are sized from `reference`'s layout, which
  // every Accumulate and the ApplyTo of one round must share.
  // NOT thread-safe: the accumulator is shared across clients.  Concurrent
  // callers stage with ExtractUpdate and accumulate serially, in a fixed
  // order, so results are bit-identical at any thread count.
  void Accumulate(const ClientUpdate& update, const ParamStore& reference);

  // Writes averaged coordinates into `store`; coordinates no client touched
  // keep their previous values.  Clears the accumulator (its buffers keep
  // their capacity for the next round).
  void ApplyTo(ParamStore& store);

  bool empty() const { return sum_.empty(); }

 private:
  std::vector<Scalar> sum_;     // one per layout coordinate
  std::vector<Scalar> weight_;  // likewise
  std::uint64_t layout_ = 0;    // fingerprint the buffers were sized for
};

}  // namespace mhbench::fl
