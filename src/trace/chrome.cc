#include "trace/chrome.hh"

#include <cstdio>
#include <iterator>

#include "common/stats.hh"

namespace sst::trace
{

std::string
chromeTraceJson(const std::string &processName, const TraceBuffer &buf)
{
    std::string out = "{\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\""
           + jsonEscape(processName) + "\"}}";
    for (unsigned t = 0;
         t < static_cast<unsigned>(TraceStrand::NumStrands); ++t) {
        out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
               "\"tid\":"
               + std::to_string(t) + ",\"args\":{\"name\":\""
               + jsonEscape(traceStrandName(
                   static_cast<TraceStrand>(t)))
               + "\"}}";
    }
    for (const TraceEvent &ev : buf.snapshot()) {
        out += ",{\"name\":\"";
        out += traceKindName(ev.kind);
        out += "\",\"cat\":\"pipe\",\"ph\":\"X\",\"pid\":0,\"tid\":"
               + std::to_string(static_cast<unsigned>(ev.strand))
               + ",\"ts\":" + std::to_string(ev.cycle)
               + ",\"dur\":1,\"args\":{\"pc\":" + std::to_string(ev.pc)
               + ",\"seq\":" + std::to_string(ev.seq)
               + ",\"arg\":" + std::to_string(ev.arg) + "}}";
    }
    out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"recorded\":"
           + std::to_string(buf.recorded())
           + ",\"dropped\":" + std::to_string(buf.dropped()) + "}}";
    return out;
}

std::string
textLog(const TraceBuffer &buf)
{
    // One token per strand, so the log splits on whitespace.
    static const char *const strand[] = {"main", "ahead", "behind", "mem"};
    static_assert(std::size(strand)
                  == static_cast<std::size_t>(TraceStrand::NumStrands));
    std::string out = "trace: " + std::to_string(buf.recorded())
                      + " events recorded, "
                      + std::to_string(buf.dropped())
                      + " dropped (the ring keeps the last "
                      + std::to_string(buf.capacity()) + ")\n";
    char line[128];
    for (const TraceEvent &ev : buf.snapshot()) {
        std::snprintf(line, sizeof(line),
                      "C%llu %s %s pc=%llu seq=%llu arg=%u\n",
                      static_cast<unsigned long long>(ev.cycle),
                      strand[static_cast<std::size_t>(ev.strand)],
                      traceKindName(ev.kind),
                      static_cast<unsigned long long>(ev.pc),
                      static_cast<unsigned long long>(ev.seq), ev.arg);
        out += line;
    }
    return out;
}

} // namespace sst::trace
