#include "p4rt/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace hydra::p4rt {

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
  for (std::size_t i = 0; i < key_spec_.size(); ++i) {
    if (key_spec_[i].kind == MatchKind::kLpm) {
      // The LPM fast path handles tables with exactly one LPM field (the
      // shape every real pipeline here uses); multi-LPM entries fall back
      // to the residue scan.
      lpm_field_ = lpm_field_ < 0 ? static_cast<int>(i) : -2;
    }
  }
  if (lpm_field_ == -2) lpm_field_ = -1;
}

void Table::insert(TableEntry entry) {
  if (entry.patterns.size() != key_spec_.size()) {
    throw std::invalid_argument("table '" + name_ + "': entry has " +
                                std::to_string(entry.patterns.size()) +
                                " patterns, expected " +
                                std::to_string(key_spec_.size()));
  }
  entries_.push_back(std::move(entry));
  index_entry(static_cast<std::uint32_t>(entries_.size() - 1));
  if (entries_.size() <= kPackedMax) {
    pack_entry(entries_.back());
  } else {
    packed_.clear();
  }
  invalidate_cache();
}

void Table::insert_exact(const std::vector<BitVec>& key,
                         std::vector<BitVec> action_data,
                         const std::string& action, int priority) {
  TableEntry e;
  e.priority = priority;
  e.action = action;
  e.action_data = std::move(action_data);
  for (const auto& k : key) e.patterns.push_back(KeyPattern::exact(k));
  insert(std::move(e));
}

bool Table::pattern_equal(MatchKind kind, const KeyPattern& a,
                          const KeyPattern& b) {
  switch (kind) {
    case MatchKind::kExact:
      // Only the value is consulted by the match; mask/prefix/bounds are
      // incidental to how the pattern was constructed.
      return a.value == b.value;
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      // Same mask and same value under that mask describe the same match
      // set, regardless of don't-care value bits or a stale prefix_len.
      return a.mask == b.mask &&
             (a.value.value() & a.mask.value()) ==
                 (b.value.value() & b.mask.value());
    case MatchKind::kRange:
      return a.lo == b.lo && a.hi == b.hi;
  }
  return false;
}

int Table::remove_if_key_equals(const std::vector<KeyPattern>& patterns) {
  if (patterns.size() != key_spec_.size()) return 0;
  if (dup_pinned_ == 0 && !key_spec_.empty()) {
    // Fully-pinned query: it can only pattern_equal a fully-pinned entry
    // (an unpinned entry field has a different mask / real range / partial
    // prefix), and with no duplicate pinned keys that entry — if any — is
    // exactly the one exact_ maps the flattened bits to. O(1).
    std::vector<std::uint64_t> flat;
    if (place(patterns, flat) == kInExact) {
      const auto it = exact_.find(flat);
      if (it == exact_.end()) return 0;
      remove_entry(it->second);
      return 1;
    }
    // Field-0-pinned query on an LPM-free table: every candidate shares
    // the unpinned shape, so it lives in the field-0 residue bucket — scan
    // just that bucket (re-found per removal: remove_entry reindexes the
    // swapped-in entry, which may reshuffle bucket vectors).
    const FieldClass c0 = classify_field(patterns[0], key_spec_[0]);
    if (lpm_field_ < 0 && c0.pins_single_key) {
      int removed = 0;
      for (bool again = true; again;) {
        again = false;
        const auto bit = residue_buckets_.find(c0.bits);
        if (bit == residue_buckets_.end()) break;
        for (const std::uint32_t idx : bit->second) {
          if (!same_key(entries_[idx], patterns)) continue;
          remove_entry(idx);
          ++removed;
          again = true;
          break;
        }
      }
      return removed;
    }
  }
  // Reference path: scan, erase (keeping storage order), rebuild.
  const auto kept = std::remove_if(
      entries_.begin(), entries_.end(),
      [&](const TableEntry& e) { return same_key(e, patterns); });
  const auto removed = static_cast<int>(entries_.end() - kept);
  entries_.erase(kept, entries_.end());
  if (removed > 0) {
    rebuild_index();
    invalidate_cache();
  }
  return removed;
}

void Table::clear() {
  entries_.clear();
  packed_.clear();
  exact_.clear();
  lpm_.clear();
  residue_buckets_.clear();
  residue_any_.clear();
  dup_pinned_ = 0;
  invalidate_cache();
}

bool Table::matches(const KeyPattern& p, MatchKind kind, std::uint64_t v) {
  switch (kind) {
    case MatchKind::kExact:
      return v == p.value.value();
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      return (v & p.mask.value()) == (p.value.value() & p.mask.value());
    case MatchKind::kRange:
      return p.lo.value() <= v && v <= p.hi.value();
  }
  return false;
}

std::uint64_t Table::prefix_mask(int width, int len) {
  if (len <= 0) return 0;
  if (len >= width) return BitVec::mask(width);
  return (BitVec::mask(width) << (width - len)) & BitVec::mask(width);
}

std::size_t Table::FlatKeyHash::operator()(
    const std::vector<std::uint64_t>& v) const {
  // SplitMix64-style mixing, folded across the flattened key words.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + v.size();
  for (std::uint64_t x : v) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    h = (h ^ x) * 0xff51afd7ed558ccdULL;
  }
  return static_cast<std::size_t>(h ^ (h >> 33));
}

Table::FieldClass Table::classify_field(const KeyPattern& p,
                                        const MatchFieldSpec& spec) {
  FieldClass c;
  const std::uint64_t full = BitVec::mask(spec.width);
  switch (spec.kind) {
    case MatchKind::kExact:
      // The reference compares raw values, so the flattened bits are the
      // raw pattern value.
      c.pins_single_key = true;
      c.bits = p.value.value();
      break;
    case MatchKind::kTernary:
      if (p.mask.value() == full) {
        c.pins_single_key = true;
        c.bits = p.value.value() & full;
      }
      break;
    case MatchKind::kLpm: {
      const std::uint64_t m = p.mask.value();
      if (m == full) {
        c.pins_single_key = true;
        c.bits = p.value.value() & full;
        break;
      }
      for (int len = 0; len < spec.width; ++len) {
        if (m == prefix_mask(spec.width, len)) {
          c.lpm_general = true;
          c.prefix = len;
          c.bits = p.value.value() & m;
          break;
        }
      }
      // Non-contiguous hand-built masks fall through to the residue.
      break;
    }
    case MatchKind::kRange:
      if (p.lo.value() == p.hi.value()) {
        c.pins_single_key = true;
        c.bits = p.lo.value();
      }
      break;
  }
  return c;
}

bool Table::better(std::uint32_t a, std::uint32_t b) const {
  const int pa = entries_[a].priority;
  const int pb = entries_[b].priority;
  return pa > pb || (pa == pb && a < b);
}

bool Table::same_key(const TableEntry& e,
                     const std::vector<KeyPattern>& patterns) const {
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (!pattern_equal(key_spec_[i].kind, e.patterns[i], patterns[i])) {
      return false;
    }
  }
  return true;
}

int Table::place(const std::vector<KeyPattern>& patterns,
                 std::vector<std::uint64_t>& flat) const {
  int where = kInExact;
  flat.assign(patterns.size(), 0);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const FieldClass c = classify_field(patterns[i], key_spec_[i]);
    flat[i] = c.bits;
    if (c.pins_single_key) continue;
    // One general prefix on the table's LPM field selects that prefix
    // length's map; any second unpinned field sends the entry to the
    // residue.
    where = c.lpm_general && static_cast<int>(i) == lpm_field_ &&
                    where == kInExact
                ? c.prefix
                : kInResidue;
  }
  return where;
}

void Table::index_entry(std::uint32_t idx) {
  const TableEntry& e = entries_[idx];
  std::vector<std::uint64_t> flat;
  const int where = place(e.patterns, flat);
  if (where != kInResidue) {
    FlatMap& map = where == kInExact ? exact_ : lpm_[where];
    auto [it, fresh] = map.emplace(std::move(flat), idx);
    if (!fresh) {
      ++dup_pinned_;
      if (better(idx, it->second)) it->second = idx;
    }
    return;
  }
  // Residue vectors stay sorted by (priority desc, index asc) so the scan
  // can stop as soon as the best hit dominates the remainder.
  const FieldClass c0 = classify_field(e.patterns[0], key_spec_[0]);
  std::vector<std::uint32_t>& vec =
      c0.pins_single_key ? residue_buckets_[c0.bits] : residue_any_;
  const auto pos = std::upper_bound(
      vec.begin(), vec.end(), idx,
      [this](std::uint32_t a, std::uint32_t b) { return better(a, b); });
  vec.insert(pos, idx);
}

void Table::unindex_entry(std::uint32_t idx) {
  const TableEntry& e = entries_[idx];
  std::vector<std::uint64_t> flat;
  const int where = place(e.patterns, flat);
  if (where == kInExact) {
    exact_.erase(flat);
    return;
  }
  if (where >= 0) {
    const auto it = lpm_.find(where);
    if (it != lpm_.end()) {
      it->second.erase(flat);
      if (it->second.empty()) lpm_.erase(it);
    }
    return;
  }
  const FieldClass c0 = classify_field(e.patterns[0], key_spec_[0]);
  if (c0.pins_single_key) {
    const auto bit = residue_buckets_.find(c0.bits);
    if (bit == residue_buckets_.end()) return;
    std::vector<std::uint32_t>& vec = bit->second;
    vec.erase(std::remove(vec.begin(), vec.end(), idx), vec.end());
    if (vec.empty()) residue_buckets_.erase(bit);
    return;
  }
  residue_any_.erase(
      std::remove(residue_any_.begin(), residue_any_.end(), idx),
      residue_any_.end());
}

void Table::remove_entry(std::uint32_t idx) {
  unindex_entry(idx);
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (idx != last) {
    unindex_entry(last);
    entries_[idx] = std::move(entries_[last]);
    entries_.pop_back();
    index_entry(idx);
  } else {
    entries_.pop_back();
  }
  rebuild_packed();
  invalidate_cache();
}

void Table::rebuild_index() {
  exact_.clear();
  lpm_.clear();
  residue_buckets_.clear();
  residue_any_.clear();
  dup_pinned_ = 0;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) index_entry(i);
  rebuild_packed();
}

void Table::pack_entry(const TableEntry& e) {
  for (std::size_t i = 0; i < e.patterns.size(); ++i) {
    const KeyPattern& p = e.patterns[i];
    PackedField f;
    switch (key_spec_[i].kind) {
      case MatchKind::kExact:
        f.mask = ~0ULL;
        f.value = p.value.value();
        break;
      case MatchKind::kTernary:
      case MatchKind::kLpm:
        f.mask = p.mask.value();
        f.value = p.value.value() & f.mask;
        break;
      case MatchKind::kRange:
        f.lo = p.lo.value();
        f.hi = p.hi.value();
        break;
    }
    packed_.push_back(f);
  }
}

void Table::rebuild_packed() {
  packed_.clear();
  if (entries_.size() > kPackedMax) return;
  for (const TableEntry& e : entries_) pack_entry(e);
}

std::int64_t Table::scan_packed(std::span<const std::uint64_t> key) const {
  // The reference scan over packed rows: the first entry of the highest
  // matching priority wins.
  std::int64_t best = -1;
  const std::size_t nf = key.size();
  const PackedField* row = packed_.data();
  for (std::size_t i = 0; i < entries_.size(); ++i, row += nf) {
    std::size_t f = 0;
    while (f < nf && (key[f] & row[f].mask) == row[f].value &&
           row[f].lo <= key[f] && key[f] <= row[f].hi) {
      ++f;
    }
    if (f == nf &&
        (best < 0 || entries_[i].priority >
                         entries_[static_cast<std::size_t>(best)].priority)) {
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

std::int64_t Table::probe_index(std::span<const std::uint64_t> key) const {
  // Hash keys: raw words, masked to the field width on ternary/LPM fields.
  std::vector<std::uint64_t>& flat = flat_scratch_;
  flat.clear();
  for (std::size_t i = 0; i < key.size(); ++i) {
    const MatchFieldSpec& spec = key_spec_[i];
    flat.push_back(spec.kind == MatchKind::kTernary ||
                           spec.kind == MatchKind::kLpm
                       ? key[i] & BitVec::mask(spec.width)
                       : key[i]);
  }
  std::int64_t best = -1;
  // Bucket key for the field-0 residue split, captured before the LPM
  // probe loop below mutates flat[lpm_field_] (which may be field 0).
  const std::uint64_t bucket_key = flat.empty() ? 0 : flat[0];
  if (!exact_.empty()) {
    const auto it = exact_.find(flat);
    if (it != exact_.end()) best = it->second;
  }
  if (!lpm_.empty()) {
    const std::uint64_t r = key[static_cast<std::size_t>(lpm_field_)];
    const int w = key_spec_[static_cast<std::size_t>(lpm_field_)].width;
    for (const auto& [len, map] : lpm_) {
      flat[static_cast<std::size_t>(lpm_field_)] = r & prefix_mask(w, len);
      const auto it = map.find(flat);
      if (it != map.end() &&
          (best < 0 || better(it->second, static_cast<std::uint32_t>(best)))) {
        best = it->second;
      }
    }
  }
  // Residue: merge the field-0 bucket for this key with the unbucketed
  // entries, in better() order, stopping once the best hit so far
  // dominates both heads. A field-0-pinned entry can only match a key
  // whose flattened field-0 bits equal its own, so scanning one bucket
  // covers every bucketed candidate.
  const std::vector<std::uint32_t>* bucket = nullptr;
  if (!residue_buckets_.empty()) {
    const auto it = residue_buckets_.find(bucket_key);
    if (it != residue_buckets_.end()) bucket = &it->second;
  }
  std::size_t bi = 0;
  std::size_t ai = 0;
  const std::size_t bn = bucket != nullptr ? bucket->size() : 0;
  while (bi < bn || ai < residue_any_.size()) {
    const bool take_bucket =
        bi < bn && (ai >= residue_any_.size() ||
                    better((*bucket)[bi], residue_any_[ai]));
    const std::uint32_t idx = take_bucket ? (*bucket)[bi] : residue_any_[ai];
    if (best >= 0 && !better(idx, static_cast<std::uint32_t>(best))) {
      break;  // sorted vectors: nothing later can win either
    }
    const TableEntry& e = entries_[idx];
    bool hit = true;
    for (std::size_t i = 0; hit && i < key.size(); ++i) {
      hit = matches(e.patterns[i], key_spec_[i].kind, key[i]);
    }
    if (hit) {
      best = idx;  // first match in merge order dominates the rest
      break;
    }
    if (take_bucket) {
      ++bi;
    } else {
      ++ai;
    }
  }
  return best;
}

const TableEntry* Table::lookup(std::span<const std::uint64_t> key) const {
  if (key.size() != key_spec_.size()) {
    throw std::invalid_argument("table '" + name_ + "': lookup key arity " +
                                std::to_string(key.size()) + ", expected " +
                                std::to_string(key_spec_.size()));
  }
  if (cache_state_ == CacheState::kValid &&
      std::equal(key.begin(), key.end(), cache_key_.begin())) {
    metrics_.cache_hits.inc();
    if (cache_idx_ < 0) {
      metrics_.misses.inc();
      return nullptr;
    }
    metrics_.hits.inc();
    return &entries_[static_cast<std::size_t>(cache_idx_)];
  }

  const std::int64_t best = entries_.size() <= kPackedMax
                                ? scan_packed(key)
                                : probe_index(key);

  cache_key_.assign(key.begin(), key.end());
  cache_idx_ = best;
  cache_state_ = CacheState::kValid;
  if (best < 0) {
    metrics_.misses.inc();
    return nullptr;
  }
  metrics_.hits.inc();
  return &entries_[static_cast<std::size_t>(best)];
}

const TableEntry* Table::lookup(const std::vector<BitVec>& key) const {
  word_scratch_.clear();
  for (const BitVec& k : key) word_scratch_.push_back(k.value());
  return lookup(std::span<const std::uint64_t>(word_scratch_));
}

const TableEntry* Table::lookup_linear_reference(
    const std::vector<BitVec>& key) const {
  if (key.size() != key_spec_.size()) {
    throw std::invalid_argument("table '" + name_ + "': lookup key arity " +
                                std::to_string(key.size()) + ", expected " +
                                std::to_string(key_spec_.size()));
  }
  const TableEntry* best = nullptr;
  for (const auto& e : entries_) {
    bool hit = true;
    for (std::size_t i = 0; hit && i < key.size(); ++i) {
      hit = matches(e.patterns[i], key_spec_[i].kind, key[i].value());
    }
    if (hit && (best == nullptr || e.priority > best->priority)) {
      best = &e;
    }
  }
  return best;
}

void Table::set_default(std::vector<BitVec> action_data) {
  default_data_ = std::move(action_data);
}

}  // namespace hydra::p4rt
