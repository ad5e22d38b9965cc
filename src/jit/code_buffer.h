#pragma once
// Executable code buffer with W^X discipline.
//
// A CodeBuffer is a grow-only byte sink backed by an anonymous mmap:
// it is mapped read+write while code is being emitted, sealed to
// read+execute exactly once by protect(), and unmapped by the destructor
// (RAII). The two states never overlap — no page of the buffer is ever
// writable and executable at the same time, and emission after protect()
// is a programming error (asserted).
//
// Growth remaps: a larger anonymous mapping is created, the emitted bytes
// are copied, and the old mapping is released. Consumers therefore refer
// to code positions as *offsets* until protect(), and only then resolve
// entry points via entry(offset) — the base address is not stable before
// the seal.
//
// The buffer compiles on any POSIX x86-64 target; on other targets (or
// under -DHMD_NO_JIT) src/jit/jit.h reports the JIT unavailable and this
// class is never instantiated, but it still compiles so the library
// builds everywhere unchanged.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hmd::jit {

class CodeBuffer {
 public:
  CodeBuffer();
  ~CodeBuffer();
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;
  CodeBuffer(CodeBuffer&& other) noexcept;
  CodeBuffer& operator=(CodeBuffer&& other) noexcept;

  /// Append one byte / a little-endian scalar. Only valid before
  /// protect(). A failed growth poisons the buffer — callers check ok()
  /// once at the end of emission rather than on every byte. Inline hot
  /// path: emission is on the artifact-load path, where compile time is
  /// amortised against the first served batches.
  void put8(std::uint8_t v) {
    if (size_ + 1 > capacity_ && !grow(1)) return;
    base_[size_++] = v;
  }
  void put32(std::uint32_t v) {
    if (size_ + 4 > capacity_ && !grow(4)) return;
    std::memcpy(base_ + size_, &v, 4);
    size_ += 4;
  }
  void put64(std::uint64_t v) {
    if (size_ + 8 > capacity_ && !grow(8)) return;
    std::memcpy(base_ + size_, &v, 8);
    size_ += 8;
  }

  /// Map room for `bytes` in total up front (an allocation hint: pages
  /// are only committed when written), sparing the remap-and-copy steps
  /// of a large emission. Valid before protect() only.
  void reserve(std::size_t bytes) {
    if (bytes > capacity_) grow(bytes - size_);
  }

  /// Overwrite 4 bytes at `offset` (fixup patching). Valid before
  /// protect() only.
  void patch32(std::size_t offset, std::uint32_t v);

  /// Pad with a given byte until size() is a multiple of `alignment`.
  void align_to(std::size_t alignment, std::uint8_t fill = 0xCC);

  /// Bytes emitted so far.
  std::size_t size() const { return size_; }

  /// False once any growth or protection step failed; the buffer is then
  /// inert (emission is ignored, protect() fails).
  bool ok() const { return ok_; }

  /// Seal the buffer: mprotect the mapping read+execute. After this the
  /// buffer is immutable and entry() becomes valid. Returns false on
  /// failure (the buffer stays non-executable and unusable).
  bool protect();

  /// Resolve an emitted offset to a callable address. Valid only after a
  /// successful protect().
  const void* entry(std::size_t offset) const;

 private:
  void reset() noexcept;
  /// Remap to at least size_ + extra bytes (cold path of the put*()s).
  bool grow(std::size_t extra);

  std::uint8_t* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  bool ok_ = true;
  bool sealed_ = false;
};

}  // namespace hmd::jit
