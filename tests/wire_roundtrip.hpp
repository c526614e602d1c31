// The wire property on real runs: every telemetry frame a checker writes
// fits its compiled layout. A test traces every packet it sends
// (Network::trace_next), runs the traffic, then calls
// expect_traced_frames_roundtrip, which serializes each traced checker
// record's words with that checker's layout, parses them back through the
// checked codec and expects the same words; a word with a bit above its
// field's width would come back different.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <memory>

#include "compiler/compile.hpp"
#include "net/network.hpp"
#include "p4rt/tele_codec.hpp"

namespace hydra::testwire {

// Expects `sent` traces in `net`, and every checker record in them (its
// layout found by name among `deployed`) to round-trip unchanged.
inline void expect_traced_frames_roundtrip(
    net::Network& net, std::size_t sent,
    std::initializer_list<std::shared_ptr<const compiler::CompiledChecker>>
        deployed) {
  const auto& traces = net.trace_sink().traces();
  ASSERT_EQ(traces.size(), sent);
  std::size_t records = 0;
  for (const auto& trace : traces) {
    for (const auto& hop : trace.hops) {
      for (const auto& rec : hop.checkers) {
        const compiler::CompiledChecker* c = nullptr;
        for (const auto& d : deployed) {
          if (d->name == rec.checker) c = d.get();
        }
        ASSERT_NE(c, nullptr) << rec.checker;
        p4rt::TeleFrame frame;
        for (const auto& f : rec.tele) frame.words.push_back(f.after);
        p4rt::TeleFrame back;
        ASSERT_EQ(p4rt::parse_frame_checked(
                      c->layout, 0, p4rt::serialize_frame(c->layout, frame),
                      back),
                  p4rt::FrameError::kOk);
        EXPECT_EQ(back.words, frame.words)
            << rec.checker << " at " << hop.switch_name << ", packet "
            << trace.packet_id;
        ++records;
      }
    }
  }
  EXPECT_GT(records, 0u);
}

}  // namespace hydra::testwire
