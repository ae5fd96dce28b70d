#include "dist/protocol.hpp"

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/serial.hpp"

namespace fgpar::dist {

namespace {

const JsonValue& RequireSchema(const JsonValue& doc) {
  const JsonValue* schema = doc.Find("schema");
  FGPAR_CHECK_MSG(schema != nullptr && schema->AsString() == kDistSchema,
                  std::string("fgpar-dist-v1: missing or wrong schema "
                              "(expected \"") +
                      kDistSchema + "\")");
  return doc;
}

void WriteIndexArray(JsonWriter& w, const std::vector<std::size_t>& indices) {
  w.BeginArray();
  for (const std::size_t index : indices) {
    w.UInt(index);
  }
  w.EndArray();
}

std::vector<std::size_t> ReadIndexArray(const JsonValue& value) {
  std::vector<std::size_t> out;
  out.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    out.push_back(static_cast<std::size_t>(entry.AsU64()));
  }
  return out;
}

}  // namespace

std::string_view GrantName(Grant grant) {
  switch (grant) {
    case Grant::kLease:
      return "lease";
    case Grant::kWait:
      return "wait";
    case Grant::kDone:
      return "done";
  }
  return "wait";
}

std::string EncodeReport(const WorkerReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kDistSchema);
  w.Key("type");
  w.String("report");
  w.Key("worker");
  w.String(report.worker);
  w.Key("fingerprint");
  w.String(Hex64(report.fingerprint));
  w.Key("lease");
  w.UInt(report.lease_id);
  if (report.has_in_progress) {
    w.Key("in_progress");
    w.UInt(report.in_progress);
  }
  w.Key("completed");
  w.BeginArray();
  for (const CompletedPoint& point : report.completed) {
    w.BeginObject();
    w.Key("index");
    w.UInt(point.index);
    w.Key("payload");
    w.String(HexEncode(point.payload));
    if (point.wall_ms > 0.0) {
      w.Key("wall_ms");
      w.Double(point.wall_ms);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("failed");
  w.BeginArray();
  for (const FailedPoint& point : report.failed) {
    w.BeginObject();
    w.Key("index");
    w.UInt(point.index);
    w.Key("message");
    w.String(point.message);
    w.Key("repro_bundle");
    w.String(point.repro_bundle);
    w.EndObject();
  }
  w.EndArray();
  w.Key("want_work");
  w.Bool(report.want_work);
  w.EndObject();
  return w.Take();
}

WorkerReport ParseReport(std::string_view payload) {
  const JsonValue doc = RequireSchema(ParseJson(payload));
  const JsonValue* type = doc.Find("type");
  FGPAR_CHECK_MSG(type != nullptr && type->AsString() == "report",
                  "fgpar-dist-v1: expected a \"report\" message");
  WorkerReport report;
  report.worker = doc.Get("worker").AsString();
  FGPAR_CHECK_MSG(!report.worker.empty(),
                  "fgpar-dist-v1: report needs a non-empty worker name");
  const std::string& fingerprint = doc.Get("fingerprint").AsString();
  FGPAR_CHECK_MSG(ParseHex64(fingerprint, report.fingerprint),
                  "fgpar-dist-v1: field 'fingerprint' must be 16 lowercase "
                  "hex digits, got '" + fingerprint + "'");
  report.lease_id = doc.Get("lease").AsU64();
  if (const JsonValue* in_progress = doc.Find("in_progress")) {
    report.has_in_progress = true;
    report.in_progress = static_cast<std::size_t>(in_progress->AsU64());
  }
  for (const JsonValue& entry : doc.Get("completed").AsArray()) {
    CompletedPoint point;
    point.index = static_cast<std::size_t>(entry.Get("index").AsU64());
    point.payload = HexDecodeToString(entry.Get("payload").AsString());
    if (const JsonValue* wall = entry.Find("wall_ms")) {
      point.wall_ms = wall->AsDouble();
    }
    report.completed.push_back(std::move(point));
  }
  for (const JsonValue& entry : doc.Get("failed").AsArray()) {
    FailedPoint point;
    point.index = static_cast<std::size_t>(entry.Get("index").AsU64());
    point.message = entry.Get("message").AsString();
    if (const JsonValue* bundle = entry.Find("repro_bundle")) {
      point.repro_bundle = bundle->AsString();
    }
    report.failed.push_back(std::move(point));
  }
  report.want_work = doc.Get("want_work").AsBool();
  return report;
}

std::string EncodeReply(const CoordinatorReply& reply) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kDistSchema);
  w.Key("type");
  w.String("reply");
  w.Key("code");
  w.Int(reply.code);
  if (!reply.error.empty()) {
    w.Key("error");
    w.String(reply.error);
  }
  w.Key("grant");
  w.String(GrantName(reply.grant));
  w.Key("lease");
  w.UInt(reply.lease_id);
  w.Key("points");
  WriteIndexArray(w, reply.points);
  w.Key("lease_revoked");
  w.Bool(reply.lease_revoked);
  w.Key("owned");
  WriteIndexArray(w, reply.owned);
  w.Key("lease_ms");
  w.UInt(reply.lease_ms);
  w.Key("heartbeat_ms");
  w.UInt(reply.heartbeat_ms);
  w.Key("retry_ms");
  w.UInt(reply.retry_ms);
  w.EndObject();
  return w.Take();
}

CoordinatorReply ParseReply(std::string_view payload) {
  const JsonValue doc = RequireSchema(ParseJson(payload));
  const JsonValue* type = doc.Find("type");
  FGPAR_CHECK_MSG(type != nullptr && type->AsString() == "reply",
                  "fgpar-dist-v1: expected a \"reply\" message");
  CoordinatorReply reply;
  reply.code = static_cast<int>(doc.Get("code").AsI64());
  if (const JsonValue* error = doc.Find("error")) {
    reply.error = error->AsString();
  }
  const std::string& grant = doc.Get("grant").AsString();
  if (grant == "lease") {
    reply.grant = Grant::kLease;
  } else if (grant == "wait") {
    reply.grant = Grant::kWait;
  } else if (grant == "done") {
    reply.grant = Grant::kDone;
  } else {
    FGPAR_CHECK_MSG(false,
                    "fgpar-dist-v1: unknown grant kind '" + grant + "'");
  }
  reply.lease_id = doc.Get("lease").AsU64();
  reply.points = ReadIndexArray(doc.Get("points"));
  reply.lease_revoked = doc.Get("lease_revoked").AsBool();
  reply.owned = ReadIndexArray(doc.Get("owned"));
  reply.lease_ms = doc.Get("lease_ms").AsU64();
  reply.heartbeat_ms = doc.Get("heartbeat_ms").AsU64();
  reply.retry_ms = doc.Get("retry_ms").AsU64();
  return reply;
}

}  // namespace fgpar::dist
