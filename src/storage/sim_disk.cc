#include "storage/sim_disk.h"

#include <cstring>
#include <string>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/trace.h"

namespace pythia {

namespace {

// Image layout (little-endian on every platform we build for):
//   [0..3]   magic          [4..7]   object_id     [8..11] page_no
//   [12..15] version        [16..19] crc32 (over the image with this field
//                                          zeroed)
//   [20..)   payload
constexpr size_t kMagicOff = 0;
constexpr size_t kObjectOff = 4;
constexpr size_t kPageNoOff = 8;
constexpr size_t kVersionOff = 12;
constexpr size_t kCrcOff = 16;
constexpr size_t kPayloadOff = 20;

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string PageName(PageId page) {
  std::string name = "(";
  name += std::to_string(page.object_id);
  name += ',';
  name += std::to_string(page.page_no);
  name += ')';
  return name;
}

}  // namespace

SimulatedDisk::PageImage SimulatedDisk::Materialize(PageId page,
                                                    uint32_t version) const {
  PageImage img;
  StoreU32(img.data() + kMagicOff, kPageMagic);
  StoreU32(img.data() + kObjectOff, page.object_id);
  StoreU32(img.data() + kPageNoOff, page.page_no);
  StoreU32(img.data() + kVersionOff, version);
  StoreU32(img.data() + kCrcOff, 0);
  // Payload is a pure function of (content seed, page, version), so a torn
  // or stale image is reproducible byte-for-byte.
  Pcg32 rng(content_seed_ ^ page.Pack(), 0x9a9e5eedULL + version);
  static_assert((kPageBytes - kPayloadOff) % 4 == 0);
  for (size_t i = kPayloadOff; i < kPageBytes; i += 4) {
    StoreU32(img.data() + i, rng.NextU32());
  }
  StoreU32(img.data() + kCrcOff, Crc32(img.data(), kPageBytes));
  return img;
}

uint32_t SimulatedDisk::CurrentVersion(PageId page) const {
  auto it = versions_.find(page);
  return it != versions_.end() ? it->second : 1;
}

void SimulatedDisk::WritePage(PageId page) {
  versions_[page] = CurrentVersion(page) + 1;
}

Status SimulatedDisk::VerifyImage(const PageImage& image, PageId expected,
                                  uint32_t expected_version) const {
  const uint32_t stored_crc = LoadU32(image.data() + kCrcOff);
  PageImage scratch = image;
  StoreU32(scratch.data() + kCrcOff, 0);
  if (Crc32(scratch.data(), kPageBytes) != stored_crc) {
    return Status::DataCorruption("page checksum mismatch on " +
                                  PageName(expected));
  }
  if (LoadU32(image.data() + kMagicOff) != kPageMagic ||
      LoadU32(image.data() + kObjectOff) != expected.object_id ||
      LoadU32(image.data() + kPageNoOff) != expected.page_no) {
    return Status::DataCorruption("page identity mismatch on " +
                                  PageName(expected));
  }
  if (LoadU32(image.data() + kVersionOff) != expected_version) {
    return Status::DataCorruption("stale page version on " +
                                  PageName(expected));
  }
  return Status::OK();
}

Result<SimulatedDisk::PageImage> SimulatedDisk::ReadPage(PageId page) {
  ++stats_.reads;
  const uint32_t version = CurrentVersion(page);
  const CorruptionKind kind =
      injector_ != nullptr ? injector_->OnPageImage() : CorruptionKind::kNone;

  PageImage img = Materialize(page, version);
  switch (kind) {
    case CorruptionKind::kNone:
      break;
    case CorruptionKind::kBitFlip: {
      const uint32_t bit = injector_->CorruptBitIndex(kPageBytes * 8);
      img[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      break;
    }
    case CorruptionKind::kTornWrite: {
      // First half of the current image, second half of the previous one:
      // the write was interrupted mid-page.
      const PageImage old = Materialize(page, version - 1);
      std::memcpy(img.data() + kPageBytes / 2, old.data() + kPageBytes / 2,
                  kPageBytes / 2);
      break;
    }
    case CorruptionKind::kStaleRead:
      img = Materialize(page, version - 1);
      break;
  }

  Status verify = VerifyImage(img, page, version);
  if (!verify.ok()) {
    if (kind == CorruptionKind::kStaleRead) {
      ++stats_.stale_reads_caught;
    } else {
      ++stats_.checksum_failures;
    }
    PYTHIA_TRACE_INSTANT_CTX("storage", "page.verify_failed", "obj",
                             page.object_id, "page", page.page_no);
    return verify;
  }
  ++stats_.verified_ok;
  return img;
}

}  // namespace pythia
