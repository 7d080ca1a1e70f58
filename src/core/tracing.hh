/**
 * @file
 * Chrome trace-event export of a recorded run.
 *
 * Renders a sim::TraceLog as Chrome trace-event JSON (load in
 * Perfetto / chrome://tracing): one track per processor with its
 * phase intervals and instants, one track per hardware resource
 * with its busy intervals, and counter tracks for the timeline
 * sample streams. Export is read-only, so it can run any time
 * after the run.
 */

#ifndef PSYNC_CORE_TRACING_HH
#define PSYNC_CORE_TRACING_HH

#include "core/json.hh"
#include "sim/tracing.hh"

namespace psync {
namespace core {

/**
 * The log as a Chrome trace-event document:
 * `{"traceEvents": [...], "displayTimeUnit": "ns"}`. One tick maps
 * to one microsecond of trace time. Process 0 holds one thread per
 * simulated processor (phase intervals as complete "X" events,
 * instants as "i"); process 1 holds one thread per hardware
 * resource (buses, memory modules) plus "C" counter tracks for the
 * timeline samples.
 */
json::Value chromeTrace(const sim::TraceLog &log);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_TRACING_HH
