#include "util/bitvec.hpp"

#include <algorithm>
#include <stdexcept>

namespace hydra {

void BitVec::throw_bad_width(int width) {
  throw std::invalid_argument("BitVec width out of range: " +
                              std::to_string(width));
}

std::uint64_t BitVec::prefix_mask(int width, int len) {
  if (len < 0 || len > width) {
    throw std::invalid_argument("prefix length " + std::to_string(len) +
                                " out of range for a " +
                                std::to_string(width) + "-bit field");
  }
  return mask(width) & ~mask(width - len);
}

namespace {
int join_width(const BitVec& a, const BitVec& b) {
  return std::max(a.width(), b.width());
}
}  // namespace

BitVec BitVec::add(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ + rhs.value_);
}

BitVec BitVec::sub(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ - rhs.value_);
}

BitVec BitVec::mul(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ * rhs.value_);
}

BitVec BitVec::div(const BitVec& rhs) const {
  const int w = join_width(*this, rhs);
  if (rhs.value_ == 0) return BitVec(w, mask(w));
  return BitVec(w, value_ / rhs.value_);
}

BitVec BitVec::mod(const BitVec& rhs) const {
  const int w = join_width(*this, rhs);
  if (rhs.value_ == 0) return BitVec(w, 0);
  return BitVec(w, value_ % rhs.value_);
}

BitVec BitVec::band(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ & rhs.value_);
}

BitVec BitVec::bor(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ | rhs.value_);
}

BitVec BitVec::bxor(const BitVec& rhs) const {
  return BitVec(join_width(*this, rhs), value_ ^ rhs.value_);
}

BitVec BitVec::bnot() const { return BitVec(width_, ~value_); }

BitVec BitVec::shl(const BitVec& rhs) const {
  if (rhs.value_ >= 64) return BitVec(width_, 0);
  return BitVec(width_, value_ << rhs.value_);
}

BitVec BitVec::shr(const BitVec& rhs) const {
  if (rhs.value_ >= 64) return BitVec(width_, 0);
  return BitVec(width_, value_ >> rhs.value_);
}

BitVec BitVec::abs_diff(const BitVec& rhs) const {
  const int w = join_width(*this, rhs);
  const std::uint64_t d =
      value_ >= rhs.value_ ? value_ - rhs.value_ : rhs.value_ - value_;
  return BitVec(w, d);
}

BitVec BitVec::resize(int width) const { return BitVec(width, value_); }

std::string BitVec::to_string() const {
  return std::to_string(width_) + "w" + std::to_string(value_);
}

std::string BitVec::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  std::uint64_t v = value_;
  do {
    out.insert(out.begin(), digits[v & 0xf]);
    v >>= 4;
  } while (v != 0);
  return "0x" + out;
}

}  // namespace hydra
