#include "storage/durable.h"

#include <cstdio>
#include <memory>

#include <unistd.h>

#include "util/bytes.h"
#include "util/crc32.h"

namespace pythia {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

std::vector<const char*> AllCrashSites() {
  return {kCrashPreTmpWrite, kCrashMidPayload, kCrashPreRename,
          kCrashPostRenamePreSidecar, kCrashMidManifest};
}

void CrashPointRegistry::Arm(const std::string& site, uint64_t at_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  random_mode_ = false;
  armed_site_ = site;
  arm_at_hit_ = at_hit == 0 ? 1 : at_hit;
  crashed_ = false;
  crash_site_.clear();
  hits_.clear();
}

void CrashPointRegistry::ArmRandom(uint64_t seed, double crash_prob) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  random_mode_ = true;
  armed_site_.clear();
  crash_prob_ = crash_prob;
  rng_ = Pcg32(seed ^ 0xc4a54c4a54ULL, /*stream=*/0xdeadULL);
  crashed_ = false;
  crash_site_.clear();
  hits_.clear();
}

void CrashPointRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  random_mode_ = false;
  armed_site_.clear();
}

void CrashPointRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  random_mode_ = false;
  armed_site_.clear();
  arm_at_hit_ = 1;
  crash_prob_ = 0.0;
  crashed_ = false;
  crash_site_.clear();
  hits_.clear();
}

bool CrashPointRegistry::Check(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t hit = ++hits_[site];
  // A dead process stays dead: after the first site fires, every later
  // durable window aborts too, so nothing leaks out past the kill point.
  if (crashed_) return true;
  if (!armed_) return false;
  bool fire = false;
  if (random_mode_) {
    fire = crash_prob_ > 0.0 && rng_.UniformDouble() < crash_prob_;
  } else {
    fire = site == armed_site_ && hit == arm_at_hit_;
  }
  if (fire) {
    crashed_ = true;
    crash_site_ = site;
  }
  return fire;
}

bool CrashPointRegistry::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

std::string CrashPointRegistry::crash_site() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crash_site_;
}

uint64_t CrashPointRegistry::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

void CrashPointRegistry::set_fault_injector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

FaultInjector* CrashPointRegistry::fault_injector() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injector_;
}

CrashPointRegistry& CrashPointRegistry::Global() {
  static CrashPointRegistry* registry = new CrashPointRegistry();
  return *registry;
}

FileIdentity FileIdentity::Of(std::string_view bytes) {
  return {true, bytes.size(), Crc32(bytes.data(), bytes.size())};
}

Result<FileIdentity> WriteFileAtomic(const std::string& path, const void* data,
                                     size_t len,
                                     const AtomicWriteSites& sites) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  const char* bytes = static_cast<const char*>(data);

  if (sites.pre_tmp != nullptr && reg.Check(sites.pre_tmp)) {
    return Status::Aborted(std::string("simulated crash at ") + sites.pre_tmp +
                           " writing " + path);
  }

  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + tmp);

  // First half, then the mid-payload crash window: a kill here leaves a
  // torn .tmp on disk (which no loader ever opens) and the published file —
  // if any — untouched.
  const size_t half = len / 2;
  if (half > 0 && std::fwrite(bytes, 1, half, f.get()) != half) {
    f.reset();
    std::remove(tmp.c_str());
    return Status::IoError("write failed: " + tmp);
  }
  if (sites.mid_payload != nullptr && reg.Check(sites.mid_payload)) {
    return Status::Aborted(std::string("simulated crash at ") +
                           sites.mid_payload + " writing " + path);
  }

  // Durable-fault consult: the device may lie. A torn durable write drops a
  // suffix of the payload but the publish "succeeds" — only the CRC framing
  // on the next load catches it. Rename failure surfaces immediately.
  FaultInjector* injector = reg.fault_injector();
  DurableWriteFault fault;
  if (injector != nullptr) fault = injector->OnDurableWrite();

  size_t rest = len - half;
  if (fault.torn_write) {
    rest = static_cast<size_t>(static_cast<double>(rest) * fault.torn_fraction);
  }
  if (rest > 0 && std::fwrite(bytes + half, 1, rest, f.get()) != rest) {
    f.reset();
    std::remove(tmp.c_str());
    return Status::IoError("write failed: " + tmp);
  }
  if (std::fflush(f.get()) != 0 || fsync(fileno(f.get())) != 0) {
    f.reset();
    std::remove(tmp.c_str());
    return Status::IoError("flush failed: " + tmp);
  }
  f.reset();

  // Complete .tmp, publish not yet attempted: a kill here keeps the old
  // published file fully intact.
  if (sites.pre_rename != nullptr && reg.Check(sites.pre_rename)) {
    return Status::Aborted(std::string("simulated crash at ") +
                           sites.pre_rename + " writing " + path);
  }

  if (fault.rename_failure) {
    std::remove(tmp.c_str());
    return Status::IoError("injected rename failure: " + tmp + " -> " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return FileIdentity::Of(std::string_view(bytes, half + rest));
}

Result<FileIdentity> WriteFramedFile(const std::string& path, uint32_t magic,
                                     uint32_t version,
                                     const std::string& payload,
                                     const AtomicWriteSites& sites,
                                     std::string* file) {
  ByteWriter frame;
  frame.Pod(magic);
  frame.Pod(version);
  frame.Pod(static_cast<uint64_t>(payload.size()));
  frame.Pod(Crc32(payload.data(), payload.size()));
  frame.Bytes(payload.data(), payload.size());
  Result<FileIdentity> written = WriteFileAtomic(
      path, frame.bytes().data(), frame.bytes().size(), sites);
  if (written.ok() && file != nullptr) {
    file->assign(frame.bytes(), 0, written->size);
  }
  return written;
}

Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint32_t version, std::string* file) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  ByteReader header(bytes.value());
  uint32_t file_magic = 0, file_version = 0, crc = 0;
  uint64_t payload_size = 0;
  if (!header.Pod(&file_magic) || file_magic != magic) {
    return Status::DataCorruption("bad magic: " + path);
  }
  // A file cut inside the version field is damaged, not stale: only a fully
  // readable, different version is a clean mismatch.
  if (!header.Pod(&file_version)) {
    return Status::DataCorruption("truncated header: " + path);
  }
  if (file_version != version) {
    return Status::FailedPrecondition("format version mismatch: " + path);
  }
  if (!header.Pod(&payload_size) || !header.Pod(&crc) ||
      header.remaining() != payload_size) {
    return Status::DataCorruption("payload size mismatch: " + path);
  }
  std::string payload = bytes->substr(bytes->size() - header.remaining());
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::DataCorruption("payload CRC mismatch: " + path);
  }
  if (file != nullptr) *file = std::move(bytes.value());
  return payload;
}

bool QuarantineFile(const std::string& path) {
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  if (std::rename(path.c_str(), quarantine.c_str()) != 0) return false;
  std::fprintf(stderr, "warning: quarantined corrupt file %s -> %s\n",
               path.c_str(), quarantine.c_str());
  return true;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("no file at: " + path);
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out.append(buf, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("read failed: " + path);
  }
  return out;
}

FileIdentity FileIdentityOf(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  return bytes.ok() ? FileIdentity::Of(bytes.value()) : FileIdentity();
}

bool RemoveFileIfExists(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

}  // namespace pythia
