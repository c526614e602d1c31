// Fixed-width bit vectors, the value representation used throughout the
// Indus interpreter and the P4 runtime substrate.
//
// Indus `bit<n>` values (1 <= n <= 64) are modelled as an unsigned integer
// truncated to n bits. All arithmetic wraps modulo 2^n, matching P4 / Tofino
// semantics. Booleans are represented as bit<1> by the runtime but keep a
// distinct static type in the frontend.
#pragma once

#include <cstdint>
#include <compare>
#include <string>

namespace hydra {

class BitVec {
 public:
  static constexpr int kMaxWidth = 64;

  BitVec() : width_(1), value_(0) {}
  BitVec(int width, std::uint64_t value) : width_(width) {
    if (width < 1 || width > kMaxWidth) throw_bad_width(width);
    value_ = value & mask(width);
  }

  static BitVec from_bool(bool b) { return BitVec(1, b ? 1 : 0); }

  int width() const { return width_; }
  std::uint64_t value() const { return value_; }
  bool as_bool() const { return value_ != 0; }

  // Mask for `width` bits; width==64 yields all-ones.
  static std::uint64_t mask(int width) {
    return width >= 64 ? ~0ULL : (1ULL << width) - 1;
  }
  // The top `len` bits of a `width`-bit field: an LPM prefix's mask.
  // Throws std::invalid_argument for a length outside [0, width].
  static std::uint64_t prefix_mask(int width, int len);

  // Arithmetic (wrapping, result has the max of the operand widths).
  BitVec add(const BitVec& rhs) const;
  BitVec sub(const BitVec& rhs) const;
  BitVec mul(const BitVec& rhs) const;
  BitVec div(const BitVec& rhs) const;  // division by zero yields all-ones
  BitVec mod(const BitVec& rhs) const;  // modulo zero yields zero

  // Bitwise.
  BitVec band(const BitVec& rhs) const;
  BitVec bor(const BitVec& rhs) const;
  BitVec bxor(const BitVec& rhs) const;
  BitVec bnot() const;
  BitVec shl(const BitVec& rhs) const;
  BitVec shr(const BitVec& rhs) const;

  // |a - b| as used by the load-balance checker's abs().
  BitVec abs_diff(const BitVec& rhs) const;

  // Comparisons compare numeric values regardless of width.
  std::strong_ordering operator<=>(const BitVec& rhs) const {
    return value_ <=> rhs.value_;
  }
  bool operator==(const BitVec& rhs) const { return value_ == rhs.value_; }

  // Returns the value truncated/zero-extended to `width` bits.
  BitVec resize(int width) const;

  std::string to_string() const;  // e.g. "8w42"
  std::string to_hex() const;     // e.g. "0x2a"

 private:
  [[noreturn]] static void throw_bad_width(int width);

  int width_;
  std::uint64_t value_;
};

}  // namespace hydra
