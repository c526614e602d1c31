// Text (de)serialization of match-action tables and register arrays, the
// building block of the full-state snapshot (net::Network::full_snapshot,
// snapshot format v2 in DESIGN.md §15).
//
// The format is a flat whitespace-separated token stream, embeddable in a
// single snapshot line and parseable with an istream — deliberately dumb
// so a hydrad restarted on a different machine reads back byte-identical
// state. Entries serialize in STORAGE order: after
// churn removals the storage order encodes equal-priority tie-breaks
// (see Table::remove_if_key_equals), so replaying inserts in that order
// reproduces lookup winners exactly.
#pragma once

#include <iosfwd>

#include "p4rt/register.hpp"
#include "p4rt/table.hpp"

namespace hydra::p4rt {

// Appends `<nentries> <ndefault> {w v}... {entry}...` to `out`. Action
// names must be whitespace-free (they are identifiers everywhere in this
// codebase); throws std::invalid_argument otherwise rather than emit an
// unparseable stream.
void serialize_table(const Table& table, std::ostream& out);

// Clears `table` and replays the serialized entries through
// Table::insert. Throws std::runtime_error on a malformed stream, and
// std::invalid_argument when an entry's arity does not match the table's
// key spec or a pattern is not canonical (a width other than its field's,
// value bits outside its mask, a prefix_len its mask does not spell).
void deserialize_table(Table& table, std::istream& in);

// Sparse register image: `<npairs> {index value}...` for cells that
// diverged from the array's initial value.
void serialize_registers(const RegisterArray& regs, std::ostream& out);

// Resets `regs` then writes back the serialized divergent cells.
void deserialize_registers(RegisterArray& regs, std::istream& in);

}  // namespace hydra::p4rt
