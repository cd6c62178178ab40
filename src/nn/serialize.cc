#include "nn/serialize.h"

#include <cstdint>
#include <map>
#include <string>

namespace pythia::nn {

namespace {

constexpr uint32_t kMagic = 0x50594e4e;  // "PYNN"

}  // namespace

void WriteParams(ByteWriter* out, const ParamList& params) {
  out->Pod(kMagic);
  out->Pod(static_cast<uint32_t>(params.size()));
  for (const Param* p : params) {
    out->String<uint32_t>(p->name);
    out->Pod(static_cast<uint32_t>(p->value.rows()));
    out->Pod(static_cast<uint32_t>(p->value.cols()));
    out->Bytes(p->value.data(), p->value.size() * sizeof(float));
  }
}

Status ReadParams(ByteReader* in, const ParamList& params) {
  uint32_t magic = 0, count = 0;
  if (!in->Pod(&magic) || magic != kMagic) {
    return Status::IoError("bad parameter-block magic");
  }
  if (!in->Pod(&count)) return Status::IoError("truncated parameters");

  std::map<std::string, Param*> by_name;
  for (Param* p : params) by_name[p->name] = p;
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", model has " + std::to_string(params.size()));
  }

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint32_t rows = 0, cols = 0;
    if (!in->String<uint32_t>(&name) || !in->Pod(&rows) || !in->Pod(&cols)) {
      return Status::IoError("truncated parameters");
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("parameter '" + name + "' not in model");
    }
    Param* p = it->second;
    if (p->value.rows() != rows || p->value.cols() != cols) {
      return Status::InvalidArgument("shape mismatch for '" + name + "'");
    }
    if (!in->Bytes(p->value.data(), p->value.size() * sizeof(float))) {
      return Status::IoError("truncated parameters");
    }
  }
  return Status::OK();
}

}  // namespace pythia::nn
