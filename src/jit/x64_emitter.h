#pragma once
// Minimal x86-64 (SysV AMD64) instruction emitter for the forest JIT.
//
// Emits exactly the instruction set the tree compiler needs — scalar SSE2
// double moves/compares/blends, a handful of GPR ops for the row loop,
// and rel32 control flow — into a CodeBuffer, with two fixup mechanisms:
//
//   Labels     forward/backward rel32 branch targets. bind() anchors a
//              label at the current offset; finish() patches every
//              recorded jump site.
//   Constants  an 8-byte-aligned constant pool appended after the code by
//              finish(), deduplicated by bit pattern. movsd/cmpsd sites
//              reference pool slots RIP-relatively; finish() patches the
//              disp32 of each site once the pool layout is known. All
//              pool references are scalar m64 loads, which carry no
//              alignment requirement (unlike packed m128 operands) — the
//              blend sequences therefore run register-to-register.
//
// Register discipline: generated kernels are leaf functions touching only
// SysV volatile registers (rdi rsi rdx rcx r8 r9 rax, xmm0-xmm7), so no
// prologue, stack frame, or callee-saved spill is ever emitted.
//
// RIP-relative displacements are measured from the END of the referencing
// instruction; cmpsd carries a trailing imm8 after its disp32, which the
// fixup bookkeeping accounts for (`end` is recorded per site).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "jit/code_buffer.h"

namespace hmd::jit {

/// GPR encodings (low 3 bits of modrm fields; bit 3 = REX extension).
enum Gpr : std::uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
};

/// xmm0..xmm7 as plain integers (REX-free range only).
using Xmm = std::uint8_t;

class X64Emitter {
 public:
  explicit X64Emitter(CodeBuffer& code) : code_(code) {}

  std::size_t offset() const { return code_.size(); }

  // --- labels ------------------------------------------------------------

  using Label = std::size_t;

  /// Pre-size the fixup bookkeeping. Purely an allocation hint — large
  /// forests record hundreds of thousands of fixups, and doubling-growth
  /// copies are a measurable slice of compile time.
  void reserve(std::size_t jumps, std::size_t consts, std::size_t pool) {
    labels_.reserve(jumps);
    jumps_.reserve(jumps);
    consts_.reserve(consts);
    pool_.reserve(pool);
    if (2 * pool > pool_index_.size()) rehash_pool_index(2 * pool);
  }

  Label make_label() {
    labels_.push_back(kUnbound);
    return labels_.size() - 1;
  }

  void bind(Label label) { labels_[label] = code_.size(); }

  // --- constant pool -----------------------------------------------------

  /// Intern a double by bit pattern; returns the pool slot id.
  std::size_t pool_const(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    if (2 * (pool_.size() + 1) > pool_index_.size()) {
      rehash_pool_index(2 * (pool_.size() + 1));
    }
    const std::size_t mask = pool_index_.size() - 1;
    for (std::size_t i = pool_hash(bits);; i = (i + 1) & mask) {
      const std::size_t entry = pool_index_[i];
      if (entry == 0) {
        pool_.push_back(bits);
        pool_index_[i] = pool_.size();
        return pool_.size() - 1;
      }
      if (pool_[entry - 1] == bits) return entry - 1;
    }
  }

  // --- SSE2 scalar double ------------------------------------------------

  /// movsd xmm, [base + r9*8 + disp32]
  void movsd_load_indexed(Xmm dst, Gpr base, std::int32_t disp) {
    code_.put8(0xF2);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x10);
    emit_modrm_sib_indexed(dst, base, disp);
  }

  /// movsd [base + r9*8 + disp32], src
  void movsd_store_indexed(Xmm src, Gpr base, std::int32_t disp) {
    code_.put8(0xF2);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x11);
    emit_modrm_sib_indexed(src, base, disp);
  }

  /// movsd xmm, [rip + <pool slot>]
  void movsd_load_const(Xmm dst, std::size_t slot) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0x10);
    emit_modrm_rip(dst);
    record_const_fixup(slot, /*tail_bytes=*/0);
  }

  /// cmpsd xmm, [rip + <pool slot>], imm8 — xmm = (xmm CMP const) mask.
  /// imm8 2 (LE) yields all-ones iff xmm <= const; NaN compares false.
  void cmpsd_const(Xmm dst, std::size_t slot, std::uint8_t imm) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0xC2);
    emit_modrm_rip(dst);
    record_const_fixup(slot, /*tail_bytes=*/1);
    code_.put8(imm);
  }

  /// ucomisd xmm, [base + r9*8 + disp32] — sets CF iff xmm < mem or
  /// unordered (the "descend right" predicate when xmm holds the
  /// threshold and memory holds the sample value).
  void ucomisd_indexed(Xmm lhs, Gpr base, std::int32_t disp) {
    code_.put8(0x66);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x2E);
    emit_modrm_sib_indexed(lhs, base, disp);
  }

  void movapd(Xmm dst, Xmm src) { emit_66_0f(0x28, dst, src); }
  void andpd(Xmm dst, Xmm src) { emit_66_0f(0x54, dst, src); }
  void andnpd(Xmm dst, Xmm src) { emit_66_0f(0x55, dst, src); }
  void orpd(Xmm dst, Xmm src) { emit_66_0f(0x56, dst, src); }

  void addsd(Xmm dst, Xmm src) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0x58);
    emit_modrm_reg(dst, src);
  }

  // --- GPR / control flow ------------------------------------------------

  /// xor r9d, r9d (zeroes all of r9)
  void zero_r9() {
    code_.put8(0x45);
    code_.put8(0x31);
    code_.put8(0xC9);
  }

  /// cmp r9, rsi
  void cmp_r9_rsi() {
    code_.put8(0x49);
    code_.put8(0x39);
    code_.put8(0xF1);
  }

  /// inc r9
  void inc_r9() {
    code_.put8(0x49);
    code_.put8(0xFF);
    code_.put8(0xC1);
  }

  void jae(Label target) { emit_jcc(0x83, target); }
  void jb(Label target) { emit_jcc(0x82, target); }

  void jmp(Label target) {
    code_.put8(0xE9);
    record_jump_fixup(target);
  }

  void ret() { code_.put8(0xC3); }

  // --- finalisation ------------------------------------------------------

  /// Patch every branch, lay out the constant pool after the code, and
  /// patch every RIP-relative pool reference. Call exactly once, after
  /// all emission. Returns false if the underlying buffer failed.
  bool finish() {
    if (!code_.ok()) return false;
    for (const JumpFixup& fix : jumps_) {
      const std::size_t target = labels_[fix.label];
      if (target == kUnbound) return false;
      code_.patch32(fix.patch_at, rel32(fix.end, target));
    }
    code_.align_to(8);
    std::vector<std::size_t> slot_offsets(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      slot_offsets[i] = code_.size();
      code_.put64(pool_[i]);
    }
    for (const ConstFixup& fix : consts_) {
      code_.patch32(fix.patch_at, rel32(fix.end, slot_offsets[fix.slot]));
    }
    return code_.ok();
  }

 private:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  struct JumpFixup {
    std::size_t patch_at;  ///< offset of the rel32 field
    std::size_t end;       ///< offset of the end of the instruction
    Label label;
  };
  struct ConstFixup {
    std::size_t patch_at;
    std::size_t end;
    std::size_t slot;
  };

  static std::uint32_t rel32(std::size_t from_end, std::size_t target) {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(target) - static_cast<std::int64_t>(from_end));
  }

  /// REX.X for the r9 index register, plus REX.B when the base is r8/r9.
  void emit_rex_x(Gpr base) {
    code_.put8(static_cast<std::uint8_t>(0x42 | ((base >> 3) & 1)));
  }

  /// modrm(mod=10, reg, rm=SIB) + SIB(scale=8, index=r9, base) + disp32.
  void emit_modrm_sib_indexed(std::uint8_t reg, Gpr base, std::int32_t disp) {
    code_.put8(static_cast<std::uint8_t>(0x80 | (reg << 3) | 0x04));
    code_.put8(static_cast<std::uint8_t>(0xC8 | (base & 7)));
    code_.put32(static_cast<std::uint32_t>(disp));
  }

  /// modrm(mod=00, reg, rm=101) — RIP-relative, disp32 placeholder.
  void emit_modrm_rip(std::uint8_t reg) {
    code_.put8(static_cast<std::uint8_t>(0x05 | (reg << 3)));
  }

  void emit_modrm_reg(std::uint8_t reg, std::uint8_t rm) {
    code_.put8(static_cast<std::uint8_t>(0xC0 | (reg << 3) | rm));
  }

  void emit_66_0f(std::uint8_t opcode, Xmm dst, Xmm src) {
    code_.put8(0x66);
    code_.put8(0x0F);
    code_.put8(opcode);
    emit_modrm_reg(dst, src);
  }

  void emit_jcc(std::uint8_t opcode, Label target) {
    code_.put8(0x0F);
    code_.put8(opcode);
    record_jump_fixup(target);
  }

  void record_jump_fixup(Label target) {
    const std::size_t patch_at = code_.size();
    code_.put32(0);
    jumps_.push_back({patch_at, code_.size(), target});
  }

  /// Home bucket of a constant: Fibonacci hashing keeps the high product
  /// bits, which every bit of the pattern reaches (the low mantissa bits
  /// of typical doubles are zero).
  std::size_t pool_hash(std::uint64_t bits) const {
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >>
                                    pool_index_shift_);
  }

  /// Resize the pool index to the power of two >= `want` (at least 16)
  /// and re-insert every interned constant.
  void rehash_pool_index(std::size_t want) {
    std::size_t buckets = 16;
    int log2 = 4;
    while (buckets < want) {
      buckets *= 2;
      ++log2;
    }
    pool_index_.assign(buckets, 0);
    pool_index_shift_ = 64 - log2;
    const std::size_t mask = buckets - 1;
    for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
      std::size_t i = pool_hash(pool_[slot]);
      while (pool_index_[i] != 0) i = (i + 1) & mask;
      pool_index_[i] = slot + 1;
    }
  }

  void record_const_fixup(std::size_t slot, std::size_t tail_bytes) {
    const std::size_t patch_at = code_.size();
    code_.put32(0);
    consts_.push_back({patch_at, code_.size() + tail_bytes, slot});
  }

  CodeBuffer& code_;
  std::vector<std::size_t> labels_;
  std::vector<JumpFixup> jumps_;
  std::vector<ConstFixup> consts_;
  std::vector<std::uint64_t> pool_;
  /// Open-addressing (linear probing) index over pool_, kept at most half
  /// full: bucket value slot + 1, 0 for empty — every 64-bit pattern is
  /// a valid constant, so the key itself cannot mark a free bucket.
  std::vector<std::size_t> pool_index_;
  int pool_index_shift_ = 64;
};

}  // namespace hmd::jit
