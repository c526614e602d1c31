#include "p4rt/table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hydra::p4rt {

namespace {

// Top-`len` bits of a `width`-bit field.
std::uint64_t prefix_mask(int width, int len) {
  if (len <= 0) return 0;
  if (len >= width) return BitVec::mask(width);
  return (BitVec::mask(width) << (width - len)) & BitVec::mask(width);
}

// The length whose prefix_mask is `m`, or -1 when `m` is not a prefix.
int prefix_len_of(int width, std::uint64_t m) {
  const std::uint64_t full = BitVec::mask(width);
  const std::uint64_t inv = ~m & full;
  if ((m & ~full) != 0 || (inv & (inv + 1)) != 0) return -1;
  return width - std::popcount(inv);
}

// Next capacity of a growing array: `first` when empty, then 4x while
// small (each growth copies or rehashes everything, which costs more than
// the slack saves) and 2x from 1024 on.
std::size_t grown(std::size_t cap, std::size_t first) {
  return cap == 0 ? first : cap < 1024 ? 4 * cap : 2 * cap;
}

bool same_bits(const BitVec& a, const BitVec& b) {
  return a.width() == b.width() && a.value() == b.value();
}

bool same_pattern(const KeyPattern& a, const KeyPattern& b) {
  return same_bits(a.value, b.value) && same_bits(a.mask, b.mask) &&
         a.prefix_len == b.prefix_len && same_bits(a.lo, b.lo) &&
         same_bits(a.hi, b.hi);
}

std::vector<std::uint64_t> words_of(const std::vector<BitVec>& key) {
  std::vector<std::uint64_t> words;
  for (const BitVec& k : key) words.push_back(k.value());
  return words;
}

// Copies `n` elements of element-row `from` over element-row `to`.
template <typename T>
void copy_row(std::vector<T>& v, std::size_t n, std::size_t from,
              std::size_t to) {
  std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(from * n), n,
              v.begin() + static_cast<std::ptrdiff_t>(to * n));
}

}  // namespace

KeyPattern KeyPattern::exact(BitVec v) {
  KeyPattern p;
  p.mask = BitVec(v.width(), BitVec::mask(v.width()));
  p.value = v;
  return p;
}

KeyPattern KeyPattern::ternary(BitVec v, BitVec m) {
  KeyPattern p;
  p.value = v;
  p.mask = m;
  return p;
}

KeyPattern KeyPattern::wildcard(int width) {
  KeyPattern p;
  p.value = BitVec(width, 0);
  p.mask = BitVec(width, 0);
  return p;
}

KeyPattern KeyPattern::lpm(BitVec v, int prefix_len) {
  KeyPattern p;
  p.value = v;
  p.prefix_len = prefix_len;
  const int w = v.width();
  const std::uint64_t m =
      prefix_len == 0 ? 0 : BitVec::mask(w) << (w - prefix_len);
  p.mask = BitVec(w, m);
  return p;
}

KeyPattern KeyPattern::range(BitVec lo, BitVec hi) {
  KeyPattern p;
  p.lo = lo;
  p.hi = hi;
  return p;
}

Table::Table(std::string name, std::vector<MatchFieldSpec> key_spec)
    : name_(std::move(name)), key_spec_(std::move(key_spec)) {
  const std::size_t nf = key_spec_.size();
  scratch_.resize(6 * nf);
  int lpm_fields = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const MatchKind kind = key_spec_[i].kind;
    const bool masked = kind == MatchKind::kTernary || kind == MatchKind::kLpm;
    scratch_[5 * nf + i] = masked ? BitVec::mask(key_spec_[i].width) : ~0ULL;
    // The LPM classes serve tables with exactly one LPM field (the shape
    // every real pipeline here uses); multi-LPM rows are residue.
    if (kind == MatchKind::kLpm && lpm_fields++ == 0) {
      lpm_field_ = static_cast<int>(i);
    }
    has_range_ = has_range_ || kind == MatchKind::kRange;
  }
  if (lpm_fields > 1) lpm_field_ = -1;
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

void Table::pattern_words(std::size_t i, const KeyPattern& p,
                          std::uint64_t* words) const {
  switch (key_spec_[i].kind) {
    case MatchKind::kExact:
      // The reference compares raw values: an all-ones mask.
      words[0] = ~0ULL;
      words[1] = p.value.value();
      break;
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      words[0] = p.mask.value();
      words[1] = p.value.value() & words[0];
      break;
    case MatchKind::kRange:
      words[0] = p.lo.value();
      words[1] = p.hi.value();
      break;
  }
}

KeyPattern Table::canonical_pattern(std::size_t i,
                                    const std::uint64_t* words) const {
  const int w = key_spec_[i].width;
  switch (key_spec_[i].kind) {
    case MatchKind::kExact:
      return KeyPattern::exact(BitVec(w, words[1]));
    case MatchKind::kTernary:
      break;
    case MatchKind::kLpm:
      if (const int len = prefix_len_of(w, words[0]); len >= 0) {
        return KeyPattern::lpm(BitVec(w, words[1]), len);
      }
      break;
    case MatchKind::kRange:
      return KeyPattern::range(BitVec(w, words[0]), BitVec(w, words[1]));
  }
  return KeyPattern::ternary(BitVec(w, words[1]), BitVec(w, words[0]));
}

bool Table::row_matches(std::uint32_t row,
                        std::span<const std::uint64_t> key) const {
  const std::uint64_t* w = match_words(row);
  for (std::size_t i = 0; i < key.size(); ++i, w += 2) {
    const bool hit = key_spec_[i].kind == MatchKind::kRange
                         ? w[0] <= key[i] && key[i] <= w[1]
                         : (key[i] & w[0]) == w[1];
    if (!hit) return false;
  }
  return true;
}

void Table::check_arity(std::size_t n) const {
  if (n != key_spec_.size()) {
    throw std::invalid_argument("table '" + name_ + "': entry has " +
                                std::to_string(n) + " patterns, expected " +
                                std::to_string(key_spec_.size()));
  }
}

void Table::reserve_rows(std::size_t rows) {
  keys_.resize(rows * 2 * key_spec_.size());
  rows_.resize(rows * stride_);
  widths_.resize(rows * data_cap_);
  if (!next_.empty()) next_.resize(rows, kNone);
  if (!image_.empty()) image_.resize(rows, kNone);
  row_cap_ = rows;
}

void Table::widen_data(std::size_t words) {
  std::vector<std::uint64_t> rows(row_cap_ * (1 + words), 0);
  std::vector<std::uint8_t> widths(row_cap_ * words, 0);
  for (std::size_t r = 0; r < size_; ++r) {
    std::copy_n(&rows_[r * stride_], stride_, &rows[r * (1 + words)]);
    std::copy_n(widths_.begin() + static_cast<std::ptrdiff_t>(r * data_cap_),
                data_cap_, &widths[r * words]);
  }
  rows_ = std::move(rows);
  widths_ = std::move(widths);
  stride_ = 1 + words;
  data_cap_ = words;
}

std::uint32_t Table::append_row(std::span<const BitVec> action_data,
                                std::string_view action, int priority) {
  const std::size_t id = static_cast<std::size_t>(
      std::find(actions_.begin(), actions_.end(), action) - actions_.begin());
  if (id > 0xffff || action_data.size() > 0xffff) {
    throw std::invalid_argument("table '" + name_ +
                                "': too many action names or words");
  }
  if (id == actions_.size()) actions_.emplace_back(action);
  if (action_data.size() > data_cap_) widen_data(action_data.size());
  if (size_ == row_cap_) reserve_rows(grown(row_cap_, 4));
  const auto row = static_cast<std::uint32_t>(size_++);
  if (!image_.empty()) image_[row] = kNone;
  std::uint64_t* r = &rows_[row * stride_];
  r[0] = static_cast<std::uint32_t>(priority) |
         static_cast<std::uint64_t>(id) << 32 |
         static_cast<std::uint64_t>(action_data.size()) << 48;
  for (std::size_t i = 0; i < action_data.size(); ++i) {
    r[1 + i] = action_data[i].value();
    widths_[row * data_cap_ + i] =
        static_cast<std::uint8_t>(action_data[i].width());
  }
  return row;
}

void Table::store_image(std::uint32_t row,
                        std::span<const KeyPattern> patterns) {
  const std::size_t nf = key_spec_.size();
  if (image_.empty()) image_.resize(row_cap_, kNone);
  if (free_images_.empty()) {
    image_[row] = static_cast<std::uint32_t>(images_.size() / nf);
    images_.insert(images_.end(), patterns.begin(), patterns.end());
    return;
  }
  image_[row] = free_images_.back();
  free_images_.pop_back();
  std::copy(patterns.begin(), patterns.end(),
            images_.begin() + static_cast<std::ptrdiff_t>(image_[row] * nf));
}

void Table::free_image(std::uint32_t row) {
  if (image_of(row) == kNone) return;
  free_images_.push_back(image_[row]);
  image_[row] = kNone;
}

void Table::insert(std::span<const KeyPattern> patterns,
                   std::span<const BitVec> action_data,
                   std::string_view action, int priority) {
  check_arity(patterns.size());
  const std::uint32_t row = append_row(action_data, action, priority);
  std::uint64_t* w = match_words(row);
  bool canonical = true;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    pattern_words(i, patterns[i], w + 2 * i);
    canonical = canonical &&
                same_pattern(patterns[i], canonical_pattern(i, w + 2 * i));
  }
  if (!canonical) store_image(row, patterns);
  index_row(row);
  invalidate_cache();
}

void Table::insert_exact(std::span<const std::uint64_t> key,
                         std::span<const BitVec> action_data,
                         std::string_view action, int priority) {
  check_arity(key.size());
  const std::uint32_t row = append_row(action_data, action, priority);
  std::uint64_t* w = match_words(row);
  // A pinned row's index key is its pinned values: no place() needed.
  std::uint64_t* flat = key_words();
  for (std::size_t i = 0; i < key.size(); ++i, w += 2) {
    const std::uint64_t full = BitVec::mask(key_spec_[i].width);
    flat[i] = w[1] = key[i] & full;
    switch (key_spec_[i].kind) {
      case MatchKind::kExact:
        w[0] = ~0ULL;
        break;
      case MatchKind::kTernary:
      case MatchKind::kLpm:
        w[0] = full;
        break;
      case MatchKind::kRange:
        w[0] = w[1];
        break;
    }
  }
  index_class_row(kPinnedTag, row);
  invalidate_cache();
}

bool Table::pinned_words(const std::vector<BitVec>& key,
                         std::vector<std::uint64_t>& words) const {
  if (key.size() != key_spec_.size()) return false;
  words.clear();
  for (std::size_t i = 0; i < key.size(); ++i) {
    const MatchKind kind = key_spec_[i].kind;
    if ((kind != MatchKind::kExact && kind != MatchKind::kTernary) ||
        key[i].width() != key_spec_[i].width) {
      return false;
    }
    words.push_back(key[i].value());
  }
  return true;
}

void Table::insert_exact(const std::vector<BitVec>& key,
                         const std::vector<BitVec>& action_data,
                         std::string_view action, int priority) {
  std::vector<std::uint64_t> words;
  if (pinned_words(key, words)) {
    insert_exact(words, action_data, action, priority);
    return;
  }
  std::vector<KeyPattern> patterns;
  for (const BitVec& k : key) patterns.push_back(KeyPattern::exact(k));
  insert(patterns, action_data, action, priority);
}

KeyPattern Table::pattern(std::int32_t row, std::size_t field) const {
  const auto r = static_cast<std::uint32_t>(row);
  if (image_of(r) != kNone) {
    return images_[image_[r] * key_spec_.size() + field];
  }
  return canonical_pattern(field, match_words(r) + 2 * field);
}

void Table::move_row(std::uint32_t from, std::uint32_t to) {
  copy_row(keys_, 2 * key_spec_.size(), from, to);
  copy_row(rows_, stride_, from, to);
  copy_row(widths_, data_cap_, from, to);
  if (!image_.empty()) image_[to] = image_[from];
}

void Table::remove_row(std::uint32_t row) {
  unindex_row(row);
  free_image(row);
  const auto last = static_cast<std::uint32_t>(--size_);
  if (row == last) return invalidate_cache();
  unindex_row(last);
  move_row(last, row);
  index_row(row);
  invalidate_cache();
}

int Table::remove_if_key_equals(const std::vector<KeyPattern>& patterns) {
  const std::size_t nf = key_spec_.size();
  if (patterns.size() != nf) return 0;
  // Two patterns match the same keys exactly when their match words agree.
  std::uint64_t* words = query_words();
  std::uint64_t* flat = words + 2 * nf;
  for (std::size_t i = 0; i < nf; ++i) {
    pattern_words(i, patterns[i], words + 2 * i);
  }
  const auto same = [&](std::uint32_t r) {
    return std::equal(words, words + 2 * nf, match_words(r));
  };
  if (dup_pinned_ == 0 && nf > 0) {
    // Fully-pinned query: it can only match a fully-pinned row (an
    // unpinned row field has a different mask / real range / partial
    // prefix), and with no duplicate pinned keys that row — if any — is
    // exactly the one the index holds under the flattened bits. O(1).
    if (place(words, flat) == kPinnedTag) {
      const std::uint32_t row = find_row(kPinnedTag, flat);
      if (row == kNone) return 0;
      remove_row(row);
      return 1;
    }
    // Field-0-pinned query on an LPM-free table: every candidate shares
    // the unpinned shape, so it sits in the field-0 residue chain — scan
    // just that chain (re-found per removal: remove_row reindexes the
    // swapped-in row, which may relink the chain).
    std::uint64_t bits0 = 0;
    if (lpm_field_ < 0 && pins_field(0, words, bits0)) {
      std::fill_n(flat, nf, 0);
      flat[0] = bits0;
      int removed = 0;
      for (bool again = true; again;) {
        again = false;
        for (std::uint32_t r = find_row(kBucketTag, flat); r != kNone;
             r = next_[r]) {
          if (!same(r)) continue;
          remove_row(r);
          ++removed;
          again = true;
          break;
        }
      }
      return removed;
    }
  }
  // Reference path: scan, erase (keeping storage order), rebuild.
  std::uint32_t kept = 0;
  for (std::uint32_t r = 0; r < size_; ++r) {
    if (same(r)) {
      free_image(r);
    } else {
      if (kept != r) move_row(r, kept);
      ++kept;
    }
  }
  const auto removed = static_cast<int>(size_ - kept);
  if (removed == 0) return 0;
  size_ = kept;
  rebuild_index();
  invalidate_cache();
  return removed;
}

void Table::clear() {
  size_ = 0;  // the row storage keeps its capacity
  actions_.clear();
  images_.clear();
  free_images_.clear();
  rebuild_index();
  invalidate_cache();
}

void Table::set_default(std::vector<BitVec> action_data) {
  default_data_ = std::move(action_data);
  default_words_.clear();
  for (const BitVec& v : default_data_) default_words_.push_back(v.value());
}

// ---------------------------------------------------------------------------
// Index maintenance
// ---------------------------------------------------------------------------

bool Table::pins_field(std::size_t i, const std::uint64_t* words,
                       std::uint64_t& bits) const {
  const std::uint64_t a = words[2 * i];
  const std::uint64_t b = words[2 * i + 1];
  switch (key_spec_[i].kind) {
    case MatchKind::kExact:
      bits = b;
      return true;
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      bits = b;
      return a == BitVec::mask(key_spec_[i].width);
    case MatchKind::kRange:
      bits = a;
      return a == b;
  }
  return false;
}

std::uint32_t Table::place(const std::uint64_t* words,
                           std::uint64_t* flat) const {
  std::uint32_t where = kPinnedTag;
  for (std::size_t i = 0; i < key_spec_.size(); ++i) {
    if (pins_field(i, words, flat[i])) continue;
    // One general prefix on the table's LPM field selects that length's
    // class; any second unpinned field sends the row to the residue.
    const int len = static_cast<int>(i) == lpm_field_
                        ? prefix_len_of(key_spec_[i].width, words[2 * i])
                        : -1;
    where = len >= 0 && where == kPinnedTag
                ? kPrefixTag + static_cast<std::uint32_t>(len)
                : kResidue;
  }
  return where;
}

void Table::add_class(std::uint32_t tag, int priority) {
  auto it = std::find_if(classes_.begin(), classes_.end(),
                         [tag](const ProbeClass& c) { return c.tag == tag; });
  if (it == classes_.end()) {
    const auto f = static_cast<std::size_t>(lpm_field_);
    const std::uint64_t mask =
        lpm_field_ < 0       ? 0
        : tag == kPinnedTag  ? flat_masks()[f]
                             : prefix_mask(key_spec_[f].width,
                                           static_cast<int>(tag - kPrefixTag));
    it = classes_.insert(it, {tag, 0, priority, 0, mask});
  }
  ++it->rows;
  it->filter |= filter_bit(hash(tag, key_words(), key_spec_.size()));
  it->max_priority = std::max(it->max_priority, priority);
  // Keep the probe order: highest max_priority first.
  for (; it != classes_.begin() && (it - 1)->max_priority < it->max_priority;
       --it) {
    std::iter_swap(it - 1, it);
  }
}

void Table::drop_class(std::uint32_t tag) {
  const auto it =
      std::find_if(classes_.begin(), classes_.end(),
                   [tag](const ProbeClass& c) { return c.tag == tag; });
  if (it != classes_.end() && --it->rows == 0) classes_.erase(it);
}

std::uint32_t Table::chain_insert(std::uint32_t head, std::uint32_t row) {
  // Chains stay sorted by (priority desc, index asc) so the scan can stop
  // as soon as the best hit dominates the remainder.
  if (head == kNone || better(row, head)) {
    next_[row] = head;
    return row;
  }
  std::uint32_t at = head;
  while (next_[at] != kNone && !better(row, next_[at])) at = next_[at];
  next_[row] = next_[at];
  next_[at] = row;
  return head;
}

std::uint32_t Table::chain_remove(std::uint32_t head, std::uint32_t row) {
  if (head == row) return next_[row];
  std::uint32_t at = head;
  while (at != kNone && next_[at] != row) at = next_[at];
  if (at != kNone) next_[at] = next_[row];
  return head;
}

void Table::index_class_row(std::uint32_t tag, std::uint32_t row) {
  add_class(tag, priority(static_cast<std::int32_t>(row)));
  std::size_t s = 0;
  if (!claim_slot(tag, key_words(), row, s)) {
    ++dup_pinned_;
    if (better(row, static_cast<std::uint32_t>(meta(s)))) {
      meta(s) = (meta(s) & ~0xffffffffULL) | row;
    }
  }
}

void Table::index_row(std::uint32_t row) {
  std::uint64_t* flat = key_words();
  const std::uint32_t tag = place(match_words(row), flat);
  if (tag != kResidue) return index_class_row(tag, row);
  if (next_.empty()) next_.resize(row_cap_, kNone);
  std::uint64_t bits0 = 0;
  if (!pins_field(0, match_words(row), bits0)) {
    any_head_ = chain_insert(any_head_, row);
    return;
  }
  std::fill_n(flat, key_spec_.size(), 0);
  flat[0] = bits0;
  std::size_t s = 0;
  if (claim_slot(kBucketTag, flat, row, s)) {
    next_[row] = kNone;
    ++buckets_;
  } else {
    const auto head = chain_insert(static_cast<std::uint32_t>(meta(s)), row);
    meta(s) = (meta(s) & ~0xffffffffULL) | head;
  }
}

void Table::unindex_row(std::uint32_t row) {
  std::uint64_t* flat = key_words();
  const std::uint32_t tag = place(match_words(row), flat);
  if (tag != kResidue) {
    const std::size_t s = find_slot(tag, flat);
    if (meta(s) >> 32 != 0) erase_slot(s);
    drop_class(tag);
    return;
  }
  std::uint64_t bits0 = 0;
  if (!pins_field(0, match_words(row), bits0)) {
    any_head_ = chain_remove(any_head_, row);
    return;
  }
  std::fill_n(flat, key_spec_.size(), 0);
  flat[0] = bits0;
  const std::size_t s = find_slot(kBucketTag, flat);
  if (meta(s) >> 32 == 0) return;
  const auto head = chain_remove(static_cast<std::uint32_t>(meta(s)), row);
  if (head != kNone) {
    meta(s) = (meta(s) & ~0xffffffffULL) | head;
  } else {
    erase_slot(s);
    --buckets_;
  }
}

void Table::rebuild_index() {
  std::fill(slots_.begin(), slots_.end(), 0);
  slots_used_ = 0;
  classes_.clear();
  buckets_ = 0;
  any_head_ = kNone;
  dup_pinned_ = 0;
  for (std::uint32_t r = 0; r < size_; ++r) index_row(r);
}

// ---------------------------------------------------------------------------
// The open-addressing index
// ---------------------------------------------------------------------------

std::uint64_t Table::hash(std::uint32_t tag, const std::uint64_t* key,
                          std::size_t n) {
  // Multiplicative hashing folded across the key words: the top bits of
  // the product, which home() takes, depend on every input bit.
  std::uint64_t h = tag;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  return h;
}

std::size_t Table::find_slot(std::uint32_t tag, const std::uint64_t* key,
                             std::uint64_t h) const {
  const std::size_t nf = key_spec_.size();
  for (std::size_t s = h >> slot_shift_;; s = (s + 1) & slot_mask_) {
    const std::uint64_t* p = &slots_[s * (nf + 1)];
    const auto t = static_cast<std::uint32_t>(p[0] >> 32);
    if (t == 0 || (t == tag && std::equal(key, key + nf, p + 1))) return s;
  }
}

std::uint32_t Table::find_row(std::uint32_t tag, const std::uint64_t* key,
                              std::uint64_t h) const {
  if (slots_used_ == 0) return kNone;
  const std::uint64_t m = meta(find_slot(tag, key, h));
  return m >> 32 == 0 ? kNone : static_cast<std::uint32_t>(m);
}

bool Table::claim_slot(std::uint32_t tag, const std::uint64_t* key,
                       std::uint32_t row, std::size_t& s) {
  // Grow at 3/4 load: linear probing stays short, no tombstones to skip.
  if (slots_.empty() || (slots_used_ + 1) * 4 > (slot_mask_ + 1) * 3) {
    grow_slots();
  }
  s = find_slot(tag, key);
  if (meta(s) >> 32 != 0) return false;
  meta(s) = static_cast<std::uint64_t>(tag) << 32 | row;
  std::copy_n(key, key_spec_.size(), &meta(s) + 1);
  ++slots_used_;
  return true;
}

void Table::erase_slot(std::size_t s) {
  const std::size_t sw = key_spec_.size() + 1;
  std::size_t hole = s;
  // Backward-shift deletion: pull displaced slots back over the hole so
  // linear probing stays correct without tombstones.
  for (std::size_t j = (s + 1) & slot_mask_; meta(j) >> 32 != 0;
       j = (j + 1) & slot_mask_) {
    const std::uint64_t* p = &slots_[j * sw];
    const std::size_t h = home(static_cast<std::uint32_t>(p[0] >> 32), p + 1);
    if (j > hole ? (h <= hole || h > j) : (h <= hole && h > j)) {
      std::copy_n(p, sw, &slots_[hole * sw]);
      hole = j;
    }
  }
  std::fill_n(&slots_[hole * sw], sw, 0);
  --slots_used_;
}

void Table::grow_slots() {
  const std::size_t sw = key_spec_.size() + 1;
  const std::size_t cap = grown(slots_.empty() ? 0 : slot_mask_ + 1, 8);
  std::vector<std::uint64_t> old(cap * sw, 0);
  old.swap(slots_);
  slot_mask_ = cap - 1;
  slot_shift_ = 64 - std::countr_zero(cap);
  for (std::size_t i = 0; i < old.size(); i += sw) {
    const auto tag = static_cast<std::uint32_t>(old[i] >> 32);
    if (tag == 0) continue;
    // Keys are distinct: the first empty slot from home is theirs.
    std::size_t s = home(tag, &old[i + 1]);
    while (meta(s) >> 32 != 0) s = (s + 1) & slot_mask_;
    std::copy_n(&old[i], sw, &slots_[s * sw]);
  }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

template <bool kRanges>
std::int32_t Table::scan(std::span<const std::uint64_t> key) const {
  // The reference semantics: the first row of the highest matching
  // priority wins.
  const std::size_t nf = key.size();
  const std::uint64_t* w = keys_.data();
  std::int32_t best = -1;
  int best_priority = 0;
  const auto take = [&](std::uint32_t r) {
    const int p = priority(static_cast<std::int32_t>(r));
    if (best < 0 || p > best_priority) {
      best = static_cast<std::int32_t>(r);
      best_priority = p;
    }
  };
  if (!kRanges && nf == 1) {  // route and single-key dict tables
    for (std::uint32_t r = 0; r < size_; ++r) {
      if ((key[0] & w[2 * r]) == w[2 * r + 1]) take(r);
    }
    return best;
  }
  for (std::uint32_t r = 0; r < size_; ++r, w += 2 * nf) {
    std::size_t i = 0;
    while (i < nf && (kRanges && key_spec_[i].kind == MatchKind::kRange
                          ? w[2 * i] <= key[i] && key[i] <= w[2 * i + 1]
                          : (key[i] & w[2 * i]) == w[2 * i + 1])) {
      ++i;
    }
    if (i == nf) take(r);
  }
  return best;
}

std::int32_t Table::probe(std::span<const std::uint64_t> key) const {
  const std::size_t nf = key.size();
  std::uint64_t* flat = key_words();
  const std::uint64_t* masks = flat_masks();
  for (std::size_t i = 0; i < nf; ++i) flat[i] = key[i] & masks[i];
  // Field-0 bits for the residue chains, taken before the LPM probes
  // rewrite the LPM field (which may be field 0).
  const std::uint64_t bits0 = nf > 0 ? flat[0] : 0;
  std::int32_t best = -1;
  for (const ProbeClass& c : classes_) {
    if (best >= 0 && priority(best) > c.max_priority) break;
    if (lpm_field_ >= 0) {
      const auto f = static_cast<std::size_t>(lpm_field_);
      flat[f] = key[f] & c.lpm_mask;
    }
    const std::uint64_t h = hash(c.tag, flat, nf);
    if ((c.filter & filter_bit(h)) == 0) continue;
    const std::uint32_t r = find_row(c.tag, flat, h);
    if (r != kNone &&
        (best < 0 || better(r, static_cast<std::uint32_t>(best)))) {
      best = static_cast<std::int32_t>(r);
    }
  }
  if (buckets_ == 0 && any_head_ == kNone) return best;
  // Residue: merge the field-0 chain for this key with the unbucketed
  // chain, in better() order, stopping once the best hit so far dominates
  // both heads. A field-0-pinned row can only match a key whose flattened
  // field-0 bits equal its own, so one chain covers every bucketed row.
  std::uint32_t b = kNone;
  if (buckets_ > 0) {
    std::fill_n(flat, nf, 0);
    flat[0] = bits0;
    b = find_row(kBucketTag, flat);
  }
  std::uint32_t a = any_head_;
  while (b != kNone || a != kNone) {
    const bool take_b = b != kNone && (a == kNone || better(b, a));
    const std::uint32_t r = take_b ? b : a;
    if (best >= 0 && !better(r, static_cast<std::uint32_t>(best))) {
      break;  // sorted chains: nothing later can win either
    }
    if (row_matches(r, key)) {
      return static_cast<std::int32_t>(r);  // dominates the rest
    }
    (take_b ? b : a) = next_[r];
  }
  return best;
}

void Table::check_key(std::size_t n) const {
  if (n != key_spec_.size()) {
    throw std::invalid_argument("table '" + name_ + "': lookup key arity " +
                                std::to_string(n) + ", expected " +
                                std::to_string(key_spec_.size()));
  }
}

std::int32_t Table::lookup(std::span<const std::uint64_t> key) const {
  check_key(key.size());
  std::uint64_t* cached = cache_key();
  if (cache_valid_ && std::equal(key.begin(), key.end(), cached)) {
    metrics_.cache_hits.inc();
    (cache_row_ < 0 ? metrics_.misses : metrics_.hits).inc();
    return cache_row_;
  }
  // A probe costs about a row's scan per installed class (the filters
  // skip most), plus a fixed part worth kScanMax rows.
  const std::int32_t best = size_ > kScanMax + classes_.size() ? probe(key)
                            : has_range_ ? scan<true>(key)
                                         : scan<false>(key);
  std::copy(key.begin(), key.end(), cached);
  cache_row_ = best;
  cache_valid_ = true;
  (best < 0 ? metrics_.misses : metrics_.hits).inc();
  return best;
}

std::int32_t Table::lookup(const std::vector<BitVec>& key) const {
  return lookup(words_of(key));
}

std::int32_t Table::lookup_linear_reference(
    const std::vector<BitVec>& key) const {
  check_key(key.size());
  return scan<true>(words_of(key));
}

}  // namespace hydra::p4rt
