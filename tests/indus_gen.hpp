// Random well-typed Indus program generator for property-based tests
// (parser round-trips, compiler differential testing). Programs draw from
// a fixed set of declarations with randomized widths and random statement
// trees, so they typecheck by construction while covering the whole
// statement/expression surface.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hydra::testgen {

struct GenConfig {
  int max_stmt_depth = 3;
  int stmts_per_block = 4;
};

class ProgramGen {
 public:
  explicit ProgramGen(Rng& rng, GenConfig config = {})
      : rng_(rng), config_(config) {}

  std::string generate() {
    w_t0_ = pick_width();
    w_t1_ = pick_width();
    w_arr_ = pick_width();
    w_brr_ = pick_width();
    w_dictv_ = pick_width();
    std::string src;
    src += "tele bit<" + std::to_string(w_t0_) + "> t0;\n";
    src += "tele bit<" + std::to_string(w_t1_) + "> t1 = " +
           std::to_string(rng_.below(200)) + ";\n";
    src += "tele bool tb = " + std::string(rng_.chance(0.5) ? "true" : "false") +
           ";\n";
    src += "tele bit<" + std::to_string(w_arr_) + ">[4] arr;\n";
    src += "tele bit<" + std::to_string(w_brr_) + ">[4] brr;\n";
    src += "tele bool[3] flags;\n";
    src += "sensor bit<16> sens = " + std::to_string(rng_.below(1000)) +
           ";\n";
    src += "header bit<8> h0;\n";
    src += "header bit<16> h1;\n";
    src += "header bool hb;\n";
    src += "control dict<bit<8>,bit<" + std::to_string(w_dictv_) +
           ">> dict1;\n";
    src += "control dict<(bit<8>,bit<8>),bool> dict2;\n";
    src += "control set<bit<8>> set1;\n";
    src += "control cfg;\n";
    src += "control bit<8>[3] carr;\n";
    src += "\n";
    src += block(/*checker=*/false);
    src += block(/*checker=*/false);
    src += block(/*checker=*/true);
    return src;
  }

 private:
  int pick_width() { return static_cast<int>(rng_.range(1, 64)); }

  // Index expressions are reduced modulo the container size so they are
  // dynamic (never a bare literal, which would be a static bounds error)
  // and usually in range.
  std::string idx_expr(int depth, int size) {
    return "(" + bit_expr(depth) + " % " + std::to_string(size) + ")";
  }

  std::string bit_expr(int depth) {
    // Leaves when depth is exhausted.
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.below(loop_var_.empty() ? 7 : 8)) {
        case 0: return std::to_string(rng_.below(256));
        case 1: return "t0";
        case 2: return "t1";
        case 3: return "h0";
        case 4: return "h1";
        case 5: return "sens";
        case 6: return "packet_length";
        default: return loop_var_;
      }
    }
    switch (rng_.below(9)) {
      case 0: return "dict1[" + bit_expr(depth - 1) + "]";
      case 1: return "arr[" + idx_expr(depth - 1, 4) + "]";
      case 2: return "carr[" + idx_expr(depth - 1, 3) + "]";
      case 3: return "length(arr)";
      case 4:
        return "abs(" + bit_expr(depth - 1) + " - " + bit_expr(depth - 1) +
               ")";
      case 5: {
        static const char* ops[] = {"+", "-", "&", "|", "^",
                                    "/", "%", "<<", ">>"};
        return "(" + bit_expr(depth - 1) + " " + ops[rng_.below(9)] + " " +
               bit_expr(depth - 1) + ")";
      }
      case 6: return "cfg";
      case 7: return (rng_.chance(0.5) ? "~" : "-") + bit_expr(depth - 1);
      default: return "(" + bit_expr(depth - 1) + " * 3)";
    }
  }

  std::string bool_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.below(4)) {
        case 0: return "true";
        case 1: return "false";
        case 2: return "tb";
        default: return "hb";
      }
    }
    switch (rng_.below(8)) {
      case 0: return "!" + bool_expr(depth - 1);
      case 1:
        return "(" + bool_expr(depth - 1) + " && " + bool_expr(depth - 1) +
               ")";
      case 2:
        return "(" + bool_expr(depth - 1) + " || " + bool_expr(depth - 1) +
               ")";
      case 3: {
        static const char* cmps[] = {"==", "!=", "<", "<=", ">", ">="};
        return "(" + bit_expr(depth - 1) + " " + cmps[rng_.below(6)] + " " +
               bit_expr(depth - 1) + ")";
      }
      case 4:
        return "dict2[(" + bit_expr(depth - 1) + ", " + bit_expr(depth - 1) +
               ")]";
      case 5: return "(" + bit_expr(depth - 1) + " in set1)";
      case 6: return "(" + bit_expr(depth - 1) + " in arr)";
      default: return "(" + bit_expr(depth - 1) + " in carr)";
    }
  }

  std::string stmt(bool checker, int depth, int indent) {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const int choice = static_cast<int>(rng_.below(checker ? 10 : 9));
    switch (choice) {
      case 0: return pad + "t0 = " + bit_expr(depth) + ";\n";
      case 1: return pad + "t1 += " + bit_expr(depth) + ";\n";
      case 2: return pad + "tb = " + bool_expr(depth) + ";\n";
      case 3: return pad + "sens += " + bit_expr(depth) + ";\n";
      case 4:
        // Pushing to the list a loop iterates is a type error.
        if (!loop_var_.empty()) return pad + "flags.push(hb);\n";
        return pad + "arr.push(" + bit_expr(depth) + ");\n";
      case 5: {
        std::string out = pad + "if (" + bool_expr(depth) + ") {\n";
        out += stmt(checker, depth - 1, indent + 1);
        if (rng_.chance(0.5)) {
          out += pad + "} elsif (" + bool_expr(depth) + ") {\n";
          out += stmt(checker, depth - 1, indent + 1);
        }
        if (rng_.chance(0.5)) {
          out += pad + "} else {\n";
          out += stmt(checker, depth - 1, indent + 1);
        }
        out += pad + "}\n";
        return out;
      }
      case 6: {
        if (!loop_var_.empty()) return pad + "flags.push(hb);\n";
        loop_var_ = "lv";
        std::string out;
        if (rng_.chance(0.5)) {
          out = pad + "for (lv in arr) {\n" +
                stmt(checker, depth - 1, indent + 1) + pad + "}\n";
        } else {
          out = pad + "for (lv, lw in arr, brr) {\n" +
                stmt(checker, depth - 1, indent + 1) + pad + "}\n";
        }
        loop_var_.clear();
        return out;
      }
      case 7: return pad + "report((t0, h0, " + bit_expr(depth) + "));\n";
      case 8: return pad + "brr[" + idx_expr(depth, 4) + "] = " +
                     bit_expr(depth) + ";\n";
      default:  // checker only
        return pad + "if (" + bool_expr(depth) + ") { reject; }\n";
    }
  }

  std::string block(bool checker) {
    std::string out = "{\n";
    const int n = 1 + static_cast<int>(rng_.below(
                          static_cast<std::uint64_t>(config_.stmts_per_block)));
    for (int i = 0; i < n; ++i) {
      out += stmt(checker, config_.max_stmt_depth, 1);
    }
    out += "}\n";
    return out;
  }

  Rng& rng_;
  GenConfig config_;
  std::string loop_var_;
  int w_t0_ = 8, w_t1_ = 8, w_arr_ = 8, w_brr_ = 8, w_dictv_ = 8;
};

}  // namespace hydra::testgen
