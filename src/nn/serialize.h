// Binary encoding of a model's parameters, embedded in a larger payload
// (a serialized WorkloadModel, core/predictor.h) through the bounds-checked
// byte codec (util/bytes.h). The block is a magic and a record count, then
// [name, rows, cols, float data] per parameter. Reading is by name, so a
// model can be rebuilt from its config and then have its weights restored.
// The enclosing file supplies the CRC frame and the atomic publish
// (storage/durable.h).
#ifndef PYTHIA_NN_SERIALIZE_H_
#define PYTHIA_NN_SERIALIZE_H_

#include "nn/param.h"
#include "util/bytes.h"
#include "util/status.h"

namespace pythia::nn {

void WriteParams(ByteWriter* out, const ParamList& params);

// Restores `params` by matching names and shapes. Fails if any parameter in
// `params` is missing from the block or has a different shape; a block with
// another record count is an error too (stale model).
Status ReadParams(ByteReader* in, const ParamList& params);

}  // namespace pythia::nn

#endif  // PYTHIA_NN_SERIALIZE_H_
