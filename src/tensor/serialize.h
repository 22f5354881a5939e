// Byte-level tensor serialization: the self-describing tensor blob that
// snapshot sections and ParamStore checkpoints embed.  Format: i32 ndim,
// i32 extents, float32 data, framed with core/bytes.
#pragma once

#include "core/bytes.h"
#include "tensor/tensor.h"

namespace mhbench {

// Appends `t`'s blob to `out` (the float data as one bulk copy).
void SerializeTensor(const Tensor& t, ByteWriter& out);

// Reads one blob written by SerializeTensor and advances `in` past it.
// Throws Error on malformed input — including extents whose data the
// remaining bytes cannot hold, which is checked before allocating.
Tensor DeserializeTensor(ByteReader& in);

}  // namespace mhbench
