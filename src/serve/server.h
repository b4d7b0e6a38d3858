// Text protocol of the serving front-ends (docs/SERVING.md).
//
// ModelService (serve/registry.h) answers one request per line: channels
// are separated by ';', values within a channel by ','. The reply uses the
// same layout, or "ERROR <code>: <message>" on failure. These helpers only
// transform strings; transport IO stays in the tools and serve/netio.cc
// (the no-blocking-io-in-serve-hot-path lint rule bans stdio here).
//
// Admin commands shared by every front-end (docs/OBSERVABILITY.md):
//  * "STATS"        — ServeStatsJson: one JSON line of serve/* counters,
//    gauges and histogram-derived p50/p95/p99 (Histogram::ValueAtQuantile).
//  * "TRACE <path>" — HandleTraceDump: dumps the sampled obs::TraceRing as
//    chrome://tracing JSON to <path> via an attached TelemetryExporter; the
//    exporter thread does the write, the caller only waits for the result.
#ifndef MSDMIXER_SERVE_SERVER_H_
#define MSDMIXER_SERVE_SERVER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "tensor/tensor.h"

namespace msd {
namespace obs {
class TelemetryExporter;
}  // namespace obs

namespace serve {

// Text-protocol helpers, exposed for tests and tools.
//
// ParseWindowLine: "1,2,3;4,5,6" -> [2, 3] tensor. Every channel must have
// the same number of values and match the expected [channels, length] if
// those are positive. Every value must be finite: "nan", "inf" and literals
// that overflow float (such as "1e99") answer kInvalidArgument with the
// value's offset, so untrusted bytes never reach the model as non-finite
// inputs.
StatusOr<Tensor> ParseWindowLine(const std::string& line, int64_t channels,
                                 int64_t length);

// Strips leading/trailing ASCII whitespace (the transport's framing), so
// admin commands match regardless of trailing newlines.
std::string TrimmedLine(const std::string& line);

// The process-wide serve/* snapshot the STATS command renders: one JSON
// object with the request counters, gauges, and p50/p95/p99 for each
// latency histogram (Histogram::ValueAtQuantile).
std::string ServeStatsJson();

// The TRACE admin command of ModelService (serve/registry.h): dumps the
// sampled obs::TraceRing as chrome://tracing JSON to `path` via `exporter`
// (the exporter thread does the file write). Returns the protocol reply
// ("OK <path>" or "ERROR ...").
std::string HandleTraceDump(const std::string& path,
                            obs::TelemetryExporter* exporter);

// FormatTensorLine: inverse rendering — rank-1 tensors become one
// comma-separated channel; rank-2 rows are joined with ';'. %.6g floats.
std::string FormatTensorLine(const Tensor& tensor);

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_SERVER_H_
