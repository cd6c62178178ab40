// Bounds-checked byte codec for the durable file payloads (.pywm model
// files, .pyck checkpoint manifests): fixed-width PODs copied in host byte
// order, length-prefixed strings and raw byte runs.
//
// ByteReader never reads past its buffer and never trusts a length it has
// not checked against the bytes that remain: a string length, a byte run or
// an item count that the remaining bytes cannot back fails the read instead
// of sizing a container. A failure is sticky, so a parser may chain reads
// and check once. This is what keeps a CRC-valid file with a lying length
// (a writer bug, or a mutation that re-stamps the CRC) from driving a huge
// allocation.
#ifndef PYTHIA_UTIL_BYTES_H_
#define PYTHIA_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace pythia {

class ByteWriter {
 public:
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  void Bytes(const void* data, size_t len) {
    out_.append(static_cast<const char*>(data), len);
  }

  // `LenT` is the on-disk width of the length prefix.
  template <typename LenT>
  void String(const std::string& s) {
    Pod(static_cast<LenT>(s.size()));
    out_.append(s);
  }

  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Bytes(v, sizeof(T));
  }

  bool Bytes(void* dst, size_t len) {
    if (failed_ || remaining() < len) return Fail();
    std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  template <typename LenT>
  bool String(std::string* s) {
    LenT len = 0;
    if (!Pod(&len) || remaining() < len) return Fail();
    s->assign(data_.data() + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  // Reads an item count and rejects it unless that many items, each at
  // least `min_item_bytes` long, could still fit in the bytes that remain.
  template <typename CountT>
  bool Count(CountT* n, size_t min_item_bytes) {
    if (!Pod(n) || *n > remaining() / min_item_bytes) return Fail();
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }
  // True when every byte was consumed without a failed read: trailing bytes
  // mean the payload is not what its writer wrote.
  bool done() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace pythia

#endif  // PYTHIA_UTIL_BYTES_H_
