#include "p4rt/table_io.hpp"

#include <cctype>
#include <ostream>
#include <istream>
#include <stdexcept>
#include <string>

namespace hydra::p4rt {

namespace {

void put_bitvec(const BitVec& v, std::ostream& out) {
  out << ' ' << v.width() << ' ' << v.value();
}

BitVec get_bitvec(std::istream& in) {
  int width = 0;
  std::uint64_t value = 0;
  if (!(in >> width >> value) || width < 1 || width > BitVec::kMaxWidth)
    throw std::runtime_error("table snapshot: bad bitvec");
  return BitVec(width, value);
}

}  // namespace

void serialize_table(const Table& table, std::ostream& out) {
  out << table.size() << ' ' << table.default_data().size();
  for (const BitVec& v : table.default_data()) put_bitvec(v, out);
  const std::size_t nf = table.key_spec().size();
  for (std::int32_t r = 0; r < static_cast<std::int32_t>(table.size()); ++r) {
    const std::string& action = table.action(r);
    for (char c : action)
      if (std::isspace(static_cast<unsigned char>(c)))
        throw std::invalid_argument("serialize_table: action name '" +
                                    action + "' contains whitespace");
    out << ' ' << table.priority(r) << ' '
        << (action.empty() ? "-" : action.c_str()) << ' ' << nf;
    for (std::size_t f = 0; f < nf; ++f) {
      const KeyPattern p = table.pattern(r, f);
      put_bitvec(p.value, out);
      put_bitvec(p.mask, out);
      out << ' ' << p.prefix_len;
      put_bitvec(p.lo, out);
      put_bitvec(p.hi, out);
    }
    const std::span<const std::uint64_t> data = table.action_data(r);
    out << ' ' << data.size();
    for (std::size_t a = 0; a < data.size(); ++a)
      out << ' ' << table.action_width(r, a) << ' ' << data[a];
  }
}

void deserialize_table(Table& table, std::istream& in) {
  std::size_t nentries = 0, ndefault = 0;
  if (!(in >> nentries >> ndefault))
    throw std::runtime_error("table snapshot: bad header");
  table.clear();
  std::vector<BitVec> def;
  for (std::size_t i = 0; i < ndefault; ++i) def.push_back(get_bitvec(in));
  table.set_default(std::move(def));
  for (std::size_t i = 0; i < nentries; ++i) {
    TableEntry e;
    std::size_t npat = 0;
    if (!(in >> e.priority >> e.action >> npat))
      throw std::runtime_error("table snapshot: bad entry");
    if (e.action == "-") e.action.clear();
    for (std::size_t p = 0; p < npat; ++p) {
      KeyPattern pat;
      pat.value = get_bitvec(in);
      pat.mask = get_bitvec(in);
      if (!(in >> pat.prefix_len))
        throw std::runtime_error("table snapshot: bad pattern");
      pat.lo = get_bitvec(in);
      pat.hi = get_bitvec(in);
      e.patterns.push_back(pat);
    }
    std::size_t nad = 0;
    if (!(in >> nad)) throw std::runtime_error("table snapshot: bad entry");
    for (std::size_t a = 0; a < nad; ++a)
      e.action_data.push_back(get_bitvec(in));
    table.insert(e);
  }
}

void serialize_registers(const RegisterArray& regs, std::ostream& out) {
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < regs.size(); ++i)
    if (regs.read(i).value() != regs.initial().value()) ++divergent;
  out << divergent;
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const BitVec v = regs.read(i);
    if (v.value() != regs.initial().value())
      out << ' ' << i << ' ' << v.value();
  }
}

void deserialize_registers(RegisterArray& regs, std::istream& in) {
  std::size_t npairs = 0;
  if (!(in >> npairs)) throw std::runtime_error("register snapshot: bad count");
  regs.reset();
  for (std::size_t p = 0; p < npairs; ++p) {
    std::size_t index = 0;
    std::uint64_t value = 0;
    if (!(in >> index >> value) || index >= regs.size())
      throw std::runtime_error("register snapshot: bad cell");
    regs.write(index, BitVec(regs.width(), value));
  }
}

}  // namespace hydra::p4rt
