#include "obs/ring.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace msd {
namespace obs {
namespace {

// GCC warns (-Wtsan, fatal under -Werror) that ThreadSanitizer cannot model
// atomic_thread_fence. That is a false-positive risk for plain memory only:
// every field the fences below order is itself a relaxed std::atomic, which
// TSan instruments directly, so no access in this file can be reported as a
// data race through the unmodeled fence. Keep the fences (they are the
// correct spelling for real hardware — see Push) and silence the warning.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
inline void FenceRelease() {
  std::atomic_thread_fence(std::memory_order_release);
}
inline void FenceSeqCst() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#pragma GCC diagnostic pop

}  // namespace

// msd-hot-path-safe: once-only lazy init; steady state is a pointer read.
TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing();  // never destroyed
  return *ring;
}

TraceRing::TraceRing(int64_t capacity) { SetCapacity(capacity); }

void TraceRing::SetCapacity(int64_t capacity) {
  capacity_ = capacity < 1 ? 1 : capacity;
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(capacity_));
  next_.store(0, std::memory_order_relaxed);
}

void TraceRing::Clear() {
  for (int64_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
}

void TraceRing::Push(const TraceSpan& span) {
  const int64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  // Seqlock write: negative seq marks the slot mid-write so a concurrent
  // Snapshot skips it; the final release store publishes ticket+1 (>0).
  // The marker is claimed with a CAS because the seqlock tolerates only one
  // writer per slot: once the ring wraps a full lap while a writer is
  // mid-write, a second writer lands on the same slot, and two interleaved
  // payloads under one writer's publish are a torn record no reader can
  // detect. The losing writer drops its span instead of waiting — the slot
  // is busy, or already holds a newer span.
  int64_t seen = slot.seq.load(std::memory_order_relaxed);
  do {
    if (seen < 0 || seen > ticket) return;
  } while (!slot.seq.compare_exchange_weak(seen, -(ticket + 1),
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  // The release fence keeps the payload stores from becoming visible before
  // the busy marker (a release on the marker would not order the LATER
  // stores, so a fence is the only correct spelling here) — without it a
  // reader on a weakly-ordered machine can observe new payload under the
  // old seq on both reads of its validation pair and accept torn data.
  FenceRelease();
  slot.request_id.store(span.request_id, std::memory_order_relaxed);
  slot.name.store(span.name, std::memory_order_relaxed);
  slot.start_us.store(span.start_us, std::memory_order_relaxed);
  slot.dur_us.store(span.dur_us, std::memory_order_relaxed);
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<TraceSpan> TraceRing::Snapshot() const {
  std::vector<std::pair<int64_t, TraceSpan>> ordered;
  ordered.reserve(static_cast<size_t>(capacity_));
  for (int64_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const int64_t before = slot.seq.load(std::memory_order_acquire);
    if (before <= 0) continue;  // never written, or a writer is mid-publish
    TraceSpan span;
    span.request_id = slot.request_id.load(std::memory_order_relaxed);
    span.name = slot.name.load(std::memory_order_relaxed);
    span.start_us = slot.start_us.load(std::memory_order_relaxed);
    span.dur_us = slot.dur_us.load(std::memory_order_relaxed);
    FenceSeqCst();
    // A writer that wrapped around and reused the slot mid-copy bumped seq;
    // drop the (possibly torn) record rather than report a franken-span.
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    ordered.emplace_back(before, span);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<TraceSpan> out;
  out.reserve(ordered.size());
  for (auto& [seq, span] : ordered) out.push_back(span);
  return out;
}

std::string TraceRing::ChromeTraceJson() const {
  const std::vector<TraceSpan> spans = Snapshot();
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceSpan& span : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%lld,\"dur\":%lld}",
                  first ? "" : ",", span.name,
                  static_cast<long long>(span.request_id),
                  static_cast<long long>(span.start_us),
                  static_cast<long long>(span.dur_us));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace msd
