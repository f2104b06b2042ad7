/**
 * @file
 * The two renderings of a TraceBuffer.
 *
 * chromeTraceJson() produces the "JSON object format" chrome://tracing
 * and Perfetto both load: a traceEvents array of metadata ("M") events
 * naming one lane (tid) per strand followed by 1-cycle complete ("X")
 * events, ts = the simulated cycle. otherData carries recorded/dropped
 * counts so a wrapped ring is visible to the reader.
 *
 * textLog() produces a line-per-event log for a terminal (`sstsim
 * trace=true`, asm_playground): a header with the same counts, then
 * "C<cycle> <strand> <kind> pc=<pc> seq=<seq> arg=<arg>" per retained
 * event, oldest first.
 */

#ifndef SSTSIM_TRACE_CHROME_HH
#define SSTSIM_TRACE_CHROME_HH

#include <string>

#include "trace/trace.hh"

namespace sst::trace
{

/** Render @p buf as a complete Chrome trace_event JSON document.
 *  @p processName labels the single pid lane (e.g. "core (sst)"). */
std::string chromeTraceJson(const std::string &processName,
                            const TraceBuffer &buf);

/** Render @p buf as a text log, one newline-terminated line per
 *  retained event after the header line. */
std::string textLog(const TraceBuffer &buf);

} // namespace sst::trace

#endif // SSTSIM_TRACE_CHROME_HH
