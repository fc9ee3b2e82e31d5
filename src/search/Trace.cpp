//===- Trace.cpp - Structured proof-search trace events -----------------------===//

#include "search/Trace.h"

#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace charon;

std::string charon::traceEventToJson(const TraceEvent &Event) {
  std::ostringstream Os;
  Os << std::setprecision(17);
  Os << "{\"path\":\"" << Event.Path << "\",\"depth\":" << Event.Depth
     << ",\"diameter\":" << Event.Diameter
     << ",\"pgd_objective\":" << Event.PgdObjective;
  if (Event.DomainChosen)
    Os << ",\"domain\":\""
       << toString(DomainSpec{Event.Domain.Base, 1}) << "\""
       << ",\"disjuncts\":" << Event.Domain.Disjuncts;
  if (Event.MarginKnown)
    Os << ",\"margin\":" << Event.Margin;
  Os << ",\"outcome\":\"" << Event.Outcome
     << "\",\"seconds\":" << Event.Seconds << "}";
  return Os.str();
}

TraceSink charon::makeJsonlTraceSink(std::ostream &Os) {
  auto Mutex = std::make_shared<std::mutex>();
  return [&Os, Mutex](const TraceEvent &Event) {
    std::string Line = traceEventToJson(Event);
    std::lock_guard<std::mutex> Lock(*Mutex);
    Os << Line << "\n";
  };
}
