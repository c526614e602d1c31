// Full-state snapshot and restore (format v2, DESIGN.md §15): the one
// snapshot format, written by Network::full_snapshot and read back by
// Network::obs_restore. Each record is one line led by its keyword. The
// structural records (clock, gen, dep + src, tab, reg, fwd, link, base,
// blat, bprop) come first, then the observability body (sim, counter,
// hist, series, window, wlat, wprop, topk, tke), then `end`.
#include "net/network.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "p4rt/table_io.hpp"

namespace hydra::net {

namespace {

// Checker source embedded in a one-line snapshot record: newline and
// backslash are the only characters the line format cannot carry.
std::string escape_source(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  for (const char c : src) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string unescape_source(const std::string& esc) {
  std::string out;
  out.reserve(esc.size());
  for (std::size_t i = 0; i < esc.size(); ++i) {
    if (esc[i] == '\\' && i + 1 < esc.size()) {
      ++i;
      out += esc[i] == 'n' ? '\n' : esc[i];
    } else {
      out += esc[i];
    }
  }
  return out;
}

// obs_restore adds the line number.
[[noreturn]] void bad_snapshot(const std::string& line) {
  throw std::invalid_argument("malformed snapshot line '" + line + "'");
}

// Record shapes that more than one record carries, each with one writer
// and one reader.

// The nine export totals of a `base` or `window` record.
void append_totals(std::string& out, const obs::ExportCumulative& c) {
  for (const std::uint64_t v :
       {c.injected, c.delivered, c.rejected, c.fwd_dropped, c.queue_dropped,
        c.fault_dropped, c.reports, c.decode_rejects, c.cold_suppressed}) {
    out += ' ' + std::to_string(v);
  }
}

void read_totals(std::istringstream& ls, obs::ExportCumulative& c) {
  ls >> c.injected >> c.delivered >> c.rejected >> c.fwd_dropped >>
      c.queue_dropped >> c.fault_dropped >> c.reports >> c.decode_rejects >>
      c.cold_suppressed;
}

// A count list, `n` and then n counts: the buckets of a `blat`, `wlat`
// or `hist` record.
void append_counts(std::string& out, const std::vector<std::uint64_t>& v) {
  out += ' ' + std::to_string(v.size());
  for (const std::uint64_t c : v) out += ' ' + std::to_string(c);
}

// Grows `out` only as counts actually arrive: a mutated `n` cannot size an
// allocation beyond the line itself. `want`, when nonzero, is the only `n`
// accepted.
void read_counts(std::istringstream& ls, std::vector<std::uint64_t>& out,
                 const std::string& line, std::size_t want = 0) {
  std::size_t n = 0;
  ls >> n;
  if (ls.fail() || (want != 0 && n != want)) bad_snapshot(line);
  out.clear();
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n && ls >> v; ++i) out.push_back(v);
  if (ls.fail()) bad_snapshot(line);
}

// One property's attribution row: a `bprop` or `wprop` record.
void append_property(std::string& out, const char* kw,
                     const obs::ExportCumulative::Property& p) {
  out += kw;
  out += ' ' + p.name + ' ' + std::to_string(p.rejects) + ' ' +
         std::to_string(p.reports) + ' ' + std::to_string(p.check_runs) +
         ' ' + std::to_string(p.tele_runs) + '\n';
}

obs::ExportCumulative::Property read_property(std::istringstream& ls,
                                              const std::string& line) {
  obs::ExportCumulative::Property p;
  ls >> p.name >> p.rejects >> p.reports >> p.check_runs >> p.tele_runs;
  if (ls.fail()) bad_snapshot(line);
  return p;
}

}  // namespace

std::string Network::full_snapshot() {
  if (obs_ == nullptr) {
    throw std::logic_error("full_snapshot: observability is off");
  }
  if (swap_in_progress()) {
    throw std::logic_error(
        "full_snapshot: rolling swap sweep in flight; run the queue until "
        "the sweep commits, then snapshot the quiesced state");
  }
  // The walk below also flushes every transparent lookup cache (checker
  // tables and forwarding programs), so the snapshot point is a cache-cold
  // boundary on BOTH sides of a restart: the restored process starts cold
  // by construction, and a warm cache here would put cache-hit counters on
  // diverging trajectories. Caches never change lookup results, only
  // which counter ticks.
  using obs::detail::format_double;
  const obs::ExportScheduler* ex = obs_->exporter.get();
  std::string out = "hydra-obs-snapshot v2\n";
  out += "clock " + format_double(events_.now()) + " " +
         (ex != nullptr ? format_double(ex->next_tick()) : std::string("0")) +
         " " + std::to_string(next_packet_id_) + " " +
         (ex != nullptr ? std::to_string(ex->ticks()) + " " +
                              format_double(ex->first_tick())
                        : std::string("0 0")) +
         "\n";
  for (std::size_t g = 0; g < generations_.size(); ++g) {
    out += "gen " + std::to_string(g) + " " +
           (generations_[g].retired ? "1" : "0") + " " +
           generations_[g].property + "\n";
  }
  for (std::size_t si = 0; si < deployments_.size(); ++si) {
    Deployment& d = deployments_[si];
    const compiler::CompileOptions& o = d.checker->options;
    out += "dep " + std::to_string(si) + " " + std::to_string(d.generation) +
           " " + (d.live() ? "1" : "0") + " " +
           std::to_string(static_cast<int>(o.placement)) + " " +
           (o.byte_aligned_layout ? "1" : "0") + " " +
           std::to_string(static_cast<int>(o.dialect)) + " " +
           std::to_string(o.baseline.stages) + " " +
           format_double(o.baseline.phv_percent) + " " + o.baseline.name +
           " " + d.checker->name + "\n";
    out += "src " + std::to_string(si) + " " +
           escape_source(d.checker->source) + "\n";
    if (!d.live()) continue;
    for (int sw = 0; sw < topo_.node_count(); ++sw) {
      if (topo_.node(sw).kind != NodeKind::kSwitch) continue;
      p4rt::CheckerState& state = d.per_switch[static_cast<std::size_t>(sw)];
      for (std::size_t ti = 0; ti < state.tables.size(); ++ti) {
        state.tables[ti].invalidate_cache();
        std::ostringstream ts;
        p4rt::serialize_table(state.tables[ti], ts);
        out += "tab " + std::to_string(si) + " " + std::to_string(sw) + " " +
               std::to_string(ti) + " " + ts.str() + "\n";
      }
      for (std::size_t ri = 0; ri < state.registers.size(); ++ri) {
        std::ostringstream rs;
        p4rt::serialize_registers(state.registers[ri], rs);
        out += "reg " + std::to_string(si) + " " + std::to_string(sw) + " " +
               std::to_string(ri) + " " + rs.str() + "\n";
      }
    }
  }
  // Mutable forwarding state, deduped by shared program instance (keyed by
  // the lowest switch id running it).
  std::vector<const ForwardingProgram*> done;
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    ForwardingProgram* prog = programs_[static_cast<std::size_t>(sw)].get();
    if (prog == nullptr ||
        std::find(done.begin(), done.end(), prog) != done.end()) {
      continue;
    }
    done.push_back(prog);
    prog->invalidate_caches();
    if (!prog->has_state()) continue;
    std::ostringstream fs;
    prog->save_state(fs);
    out += "fwd " + std::to_string(sw) + " " + fs.str() + "\n";
  }
  // Per-link cumulative counters and the serialization clock: restoring
  // them keeps the per-link gauges and future queueing byte-identical.
  for (std::size_t li = 0; li < links_.size(); ++li) {
    for (int dir = 0; dir < 2; ++dir) {
      const Link::DirStats& s = links_[li].stats(dir);
      out += "link " + std::to_string(li) + " " + std::to_string(dir) + " " +
             std::to_string(s.packets) + " " + std::to_string(s.bytes) + " " +
             std::to_string(s.drops) + " " + format_double(s.busy_until) +
             " " + format_double(s.busy_time) + "\n";
    }
  }
  // The export scheduler's delta baseline (totals as of the last fired
  // tick). Events between that tick and this snapshot are in no window
  // yet; without this record a restored process would re-anchor the
  // baseline at the snapshot totals and silently drop them from its first
  // post-restore window.
  if (ex != nullptr) {
    const obs::ExportCumulative& b = ex->baseline();
    out += "base";
    append_totals(out, b);
    out += "\nblat " + std::to_string(b.latency_count) + " " +
           format_double(b.latency_sum);
    append_counts(out, b.latency_buckets);
    out += "\n";
    for (const auto& p : b.properties) append_property(out, "bprop", p);
  }
  // The observability body: simulation counters, the registry, the window
  // ring and the top-K sketches.
  out += "sim injected " + std::to_string(counters_.injected) + "\n";
  out += "sim delivered " + std::to_string(counters_.delivered) + "\n";
  out += "sim rejected " + std::to_string(counters_.rejected) + "\n";
  out += "sim fwd_dropped " + std::to_string(counters_.fwd_dropped) + "\n";
  out += "sim queue_dropped " + std::to_string(counters_.queue_dropped) + "\n";
  out += "sim fault_dropped " + std::to_string(counters_.fault_dropped) + "\n";
  out += obs_->registry.snapshot_text();
  if (ex != nullptr) {
    out += "series " + std::to_string(ex->captured()) + "\n";
    for (const obs::WindowSample& w : ex->windows()) {
      out += "window " + std::to_string(w.index) + " " +
             format_double(w.t0) + " " + format_double(w.t1);
      append_totals(out, w.delta);
      out += " " + format_double(w.pps) + " " +
             format_double(w.rejects_per_s) + "\n";
      out += "wlat " + std::to_string(w.delta.latency_count) + " " +
             format_double(w.delta.latency_sum) + " " +
             format_double(w.latency_p50) + " " +
             format_double(w.latency_p90) + " " +
             format_double(w.latency_p99);
      append_counts(out, w.delta.latency_buckets);
      out += "\n";
      for (const auto& p : w.delta.properties) {
        append_property(out, "wprop", p);
      }
    }
  }
  if (obs_->live != nullptr) out += obs_->live->topk->snapshot_text();
  out += "end\n";
  return out;
}

void Network::obs_restore(const std::string& text) {
  if (!events_.empty()) {
    throw std::logic_error("obs_restore: event queue must be idle");
  }
  if (obs_ == nullptr) {
    throw std::logic_error(
        "obs_restore: arm observability (and export/live obs, if wanted) "
        "before restoring");
  }
  if (!deployments_.empty()) {
    throw std::logic_error(
        "obs_restore: a full-state snapshot rebuilds the deployment set; "
        "restore into a scenario that has not deployed any checker");
  }
  const std::size_t latency_buckets = delivered_latency_bounds().size() + 1;
  std::deque<obs::WindowSample> windows;
  std::uint64_t captured = 0;
  // Structural state: the clock (unchanged without a clock record), the
  // export baseline, a dep record waiting for its src line.
  double now = events_.now();
  std::uint64_t npid = next_packet_id_;
  std::uint64_t tick_count = 0;
  double first_tick = 0.0;
  obs::ExportCumulative base_cum;
  bool have_base = false;
  struct PendingDep {
    bool valid = false;
    int slot = -1;
    std::uint32_t gen = 0;
    bool live = false;
    compiler::CompileOptions options;
    std::string name;
  } pending;
  // Each table built from a tab record, by (slot, table, row text): a
  // later switch whose record has the same text takes a copy, which
  // shares its entry store, as the switches of the snapshotted run did.
  std::map<std::tuple<int, std::size_t, std::string>, p4rt::Table> built;
  // Fires at the first body keyword: the deployment set is complete, so
  // the obs wiring (stale counters included) can be rebuilt before any
  // counter/sketch values land.
  bool structural_done = false;
  const auto finish_structural = [&]() {
    if (structural_done) return;
    structural_done = true;
    rewire_observability();  // re-registers retired-generation counters
  };
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 1;
  try {
    if (!std::getline(in, line) || line != "hydra-obs-snapshot v2") {
      throw std::invalid_argument("unrecognized snapshot header");
    }
    for (;;) {
      ++line_no;
      if (!std::getline(in, line)) {
        throw std::invalid_argument("truncated snapshot");
      }
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string kw;
      ls >> kw;
      if (pending.valid && kw != "src") {
        throw std::invalid_argument("dep record without matching src line");
      }
      if (kw == "end") {
        finish_structural();
        break;
      }
      const bool structural = kw == "clock" || kw == "gen" || kw == "dep" ||
                              kw == "src" || kw == "tab" || kw == "reg" ||
                              kw == "fwd" || kw == "link" || kw == "base" ||
                              kw == "blat" || kw == "bprop";
      if (structural) {
        if (structural_done) bad_snapshot(line);
        if (kw == "clock") {
          double next_tick = 0.0;  // implied by first_tick and tick_count
          ls >> now >> next_tick >> npid >> tick_count >> first_tick;
          if (ls.fail()) bad_snapshot(line);
        } else if (kw == "gen") {
          std::size_t g = 0;
          int retired = 0;
          std::string prop;
          ls >> g >> retired >> prop;
          if (ls.fail() || g != generations_.size() || prop.empty()) {
            bad_snapshot(line);
          }
          note_property(prop);
          generations_.push_back({nullptr, std::move(prop), retired != 0, {}});
        } else if (kw == "dep") {
          int slot = -1;
          int live = 0;
          int placement = 0;
          int aligned = 0;
          int dialect = 0;
          ls >> slot >> pending.gen >> live >> placement >> aligned >>
              dialect >> pending.options.baseline.stages >>
              pending.options.baseline.phv_percent >>
              pending.options.baseline.name >> pending.name;
          if (ls.fail() || slot != static_cast<int>(deployments_.size()) ||
              pending.gen >= generations_.size() ||
              generations_[pending.gen].property != pending.name ||
              placement < 0 ||
              placement > static_cast<int>(compiler::CheckPlacement::kAuto) ||
              dialect < 0 ||
              dialect > static_cast<int>(compiler::P4Dialect::kV1Model)) {
            bad_snapshot(line);
          }
          pending.valid = true;
          pending.slot = slot;
          pending.live = live != 0;
          pending.options.placement =
              static_cast<compiler::CheckPlacement>(placement);
          pending.options.byte_aligned_layout = aligned != 0;
          pending.options.dialect = static_cast<compiler::P4Dialect>(dialect);
        } else if (kw == "src") {
          int slot = -1;
          ls >> slot;
          if (ls.fail() || !pending.valid || slot != pending.slot) {
            bad_snapshot(line);
          }
          std::string esc;
          std::getline(ls, esc);
          if (!esc.empty() && esc.front() == ' ') esc.erase(0, 1);
          auto sp = std::make_shared<const compiler::CompiledChecker>(
              compiler::compile_checker(unescape_source(esc), pending.name,
                                        pending.options));
          fill_slot(static_cast<std::size_t>(slot), sp, pending.gen,
                    pending.live ? kPhaseEnabled : kPhaseRetired);
          generations_[pending.gen].checker = std::move(sp);
          pending.valid = false;
        } else if (kw == "tab" || kw == "reg") {
          int slot = -1;
          int sw = -1;
          std::size_t idx = 0;
          ls >> slot >> sw >> idx;
          if (ls.fail() || slot < 0 ||
              slot >= static_cast<int>(deployments_.size()) || sw < 0 ||
              sw >= topo_.node_count() ||
              topo_.node(sw).kind != NodeKind::kSwitch) {
            bad_snapshot(line);
          }
          Deployment& d = deployments_[static_cast<std::size_t>(slot)];
          if (!d.live()) bad_snapshot(line);
          p4rt::CheckerState& state =
              d.per_switch[static_cast<std::size_t>(sw)];
          if (kw == "tab") {
            if (idx >= state.tables.size()) bad_snapshot(line);
            std::string rows;
            std::getline(ls, rows);
            auto key = std::make_tuple(slot, idx, std::move(rows));
            const auto same = built.find(key);
            if (same != built.end()) {
              state.tables[idx] = same->second;
            } else {
              std::istringstream rs(std::get<2>(key));
              p4rt::deserialize_table(state.tables[idx], rs);
              built.emplace(std::move(key), state.tables[idx]);
            }
          } else {
            if (idx >= state.registers.size()) bad_snapshot(line);
            p4rt::deserialize_registers(state.registers[idx], ls);
          }
        } else if (kw == "fwd") {
          int sw = -1;
          ls >> sw;
          if (ls.fail() || sw < 0 || sw >= topo_.node_count()) {
            bad_snapshot(line);
          }
          ForwardingProgram* prog =
              programs_[static_cast<std::size_t>(sw)].get();
          if (prog == nullptr || !prog->has_state()) {
            throw std::invalid_argument(
                "fwd state for switch " + std::to_string(sw) +
                ", whose program keeps none (scenario mismatch)");
          }
          prog->load_state(ls);
        } else if (kw == "link") {
          std::size_t li = 0;
          int dir = -1;
          Link::DirStats s;
          ls >> li >> dir >> s.packets >> s.bytes >> s.drops >> s.busy_until >>
              s.busy_time;
          if (ls.fail() || li >= links_.size() || dir < 0 || dir > 1) {
            bad_snapshot(line);
          }
          links_[li].restore_stats(dir, s);
        } else if (kw == "base") {
          read_totals(ls, base_cum);
          if (ls.fail()) bad_snapshot(line);
          have_base = true;
        } else if (kw == "blat") {
          ls >> base_cum.latency_count >> base_cum.latency_sum;
          read_counts(ls, base_cum.latency_buckets, line, latency_buckets);
        } else {  // bprop
          base_cum.properties.push_back(read_property(ls, line));
        }
        continue;
      }
      finish_structural();
      if (kw == "sim") {
        std::string which;
        std::uint64_t v = 0;
        ls >> which >> v;
        if (ls.fail()) bad_snapshot(line);
        if (which == "injected") counters_.injected += v;
        else if (which == "delivered") counters_.delivered += v;
        else if (which == "rejected") counters_.rejected += v;
        else if (which == "fwd_dropped") counters_.fwd_dropped += v;
        else if (which == "queue_dropped") counters_.queue_dropped += v;
        else if (which == "fault_dropped") counters_.fault_dropped += v;
        else bad_snapshot(line);
      } else if (kw == "counter") {
        std::string name;
        std::uint64_t v = 0;
        ls >> name >> v;
        if (ls.fail()) bad_snapshot(line);
        obs_->registry.restore_counter(name, v);
      } else if (kw == "hist") {
        std::string name;
        std::uint64_t count = 0;
        double sum = 0.0;
        ls >> name >> count >> sum;
        std::vector<std::uint64_t> buckets;
        read_counts(ls, buckets, line);
        obs_->registry.restore_histogram(name, count, sum, buckets);
      } else if (kw == "series") {
        ls >> captured;
        if (ls.fail()) bad_snapshot(line);
      } else if (kw == "window") {
        obs::WindowSample w;
        ls >> w.index >> w.t0 >> w.t1;
        read_totals(ls, w.delta);
        ls >> w.pps >> w.rejects_per_s;
        if (ls.fail()) bad_snapshot(line);
        windows.push_back(std::move(w));
      } else if (kw == "wlat") {
        if (windows.empty()) bad_snapshot(line);
        obs::WindowSample& w = windows.back();
        ls >> w.delta.latency_count >> w.delta.latency_sum >> w.latency_p50 >>
            w.latency_p90 >> w.latency_p99;
        read_counts(ls, w.delta.latency_buckets, line, latency_buckets);
      } else if (kw == "wprop") {
        if (windows.empty()) bad_snapshot(line);
        windows.back().delta.properties.push_back(read_property(ls, line));
      } else if (kw == "topk" || kw == "tke") {
        // Sketch state is only meaningful with live obs re-armed; otherwise
        // the lines are structural no-ops.
        if (obs_->live != nullptr && !obs_->live->topk->restore_line(line)) {
          bad_snapshot(line);
        }
      } else {
        bad_snapshot(line);
      }
    }
  } catch (const std::exception& e) {
    // Every failure names the line it was found on, including the
    // table/register codecs' std::runtime_error, indus::CompileError from
    // an embedded checker source, and the registry's std::invalid_argument.
    throw std::invalid_argument("obs_restore: snapshot line " +
                                std::to_string(line_no) + ": " + e.what());
  }
  // Resume the snapshot's time domain: the clock, packet-id stream, and
  // (below) export-tick boundaries continue exactly where the snapshotted
  // run left off.
  events_.advance_now(now);
  next_packet_id_ = npid;
  if (obs_->exporter != nullptr) {
    if (have_base) {
      // The snapshotted run's export state, verbatim. Its delta baseline
      // holds the totals at its last fired tick, NOT the snapshot-time
      // totals: events between the two are in no window yet and must land
      // in the first post-restore window.
      obs_->exporter->restore(std::move(base_cum), captured,
                              std::move(windows), first_tick, tick_count);
    } else {
      // The snapshotted run exported nothing: anchor deltas at the
      // restored totals.
      obs_->exporter->rebaseline(export_cumulative());
    }
    if (obs_->live != nullptr) {
      obs_->live->health = obs::evaluate_health(
          obs_->exporter->windows(), obs_->exporter->latency_bounds(),
          obs::HealthThresholds{});
    }
  }
}

}  // namespace hydra::net
