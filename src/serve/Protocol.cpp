//===- serve/Protocol.cpp - predictord request/response schema -------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Json.h"

using namespace vrp;
using namespace vrp::serve;
using json::Cursor;
using json::escape;

const char *serve::respStatusName(RespStatus S) {
  switch (S) {
  case RespStatus::Ok:
    return "ok";
  case RespStatus::Error:
    return "error";
  case RespStatus::Shed:
    return "shed";
  }
  return "unknown";
}

std::string serve::serializeRequest(const Request &R) {
  std::string Out = "{\"id\":" + std::to_string(R.Id);
  Out += ",\"method\":\"" + escape(R.Method) + "\"";
  if (!R.Source.empty())
    Out += ",\"source\":\"" + escape(R.Source) + "\"";
  if (R.Predictor != "vrp")
    Out += ",\"predictor\":\"" + escape(R.Predictor) + "\"";
  if (R.DumpRanges)
    Out += ",\"ranges\":true";
  if (R.StepLimit != 0)
    Out += ",\"step_limit\":" + std::to_string(R.StepLimit);
  if (R.DeadlineMs != 0)
    Out += ",\"deadline_ms\":" + std::to_string(R.DeadlineMs);
  Out += "}";
  return Out;
}

Response serve::okResponse(uint64_t Id, std::string Payload) {
  Response R;
  R.Id = Id;
  R.Payload = std::move(Payload);
  return R;
}

Response serve::failedResponse(uint64_t Id, RespStatus Status,
                               std::string Category, std::string Site,
                               std::string Message) {
  Response R;
  R.Id = Id;
  R.Status = Status;
  R.Category = std::move(Category);
  R.Site = std::move(Site);
  R.Message = std::move(Message);
  return R;
}

std::string serve::serializeResponse(const Response &R) {
  std::string Out = "{\"id\":" + std::to_string(R.Id);
  Out += ",\"status\":\"";
  Out += respStatusName(R.Status);
  Out += "\"";
  if (R.Degraded)
    Out += ",\"degraded\":true";
  if (!R.Payload.empty())
    Out += ",\"payload\":\"" + escape(R.Payload) + "\"";
  if (!R.Category.empty())
    Out += ",\"category\":\"" + escape(R.Category) + "\"";
  if (!R.Site.empty())
    Out += ",\"site\":\"" + escape(R.Site) + "\"";
  if (!R.Message.empty())
    Out += ",\"message\":\"" + escape(R.Message) + "\"";
  Out += "}";
  return Out;
}

namespace {

/// Drives the shared object-scan loop; \p Field dispatches one known key
/// (returning false on a malformed value) and leaves unknown keys to the
/// loop's scalar skip, so the protocol can grow fields without breaking
/// older peers.
bool scanObject(const std::string &Json, std::string *Err,
                bool (*Field)(Cursor &, const std::string &, bool &, void *),
                void *Ctx) {
  Cursor C(Json);
  auto fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why.empty() ? "malformed message" : Why;
    return false;
  };
  if (!C.lit("{"))
    return fail(C.error());
  bool First = true;
  while (!C.peek('}')) {
    if (!First && !C.lit(","))
      return fail("expected ',' or '}'");
    First = false;
    std::string Key;
    if (!C.str(Key) || !C.lit(":"))
      return fail(C.error());
    bool Known = false;
    if (!Field(C, Key, Known, Ctx))
      return fail(C.error());
    if (!Known && !C.skipScalar())
      return fail(C.error());
  }
  if (!C.lit("}"))
    return fail(C.error());
  if (!C.atEnd())
    return fail("trailing bytes after object");
  return true;
}

} // namespace

bool serve::parseRequest(const std::string &Json, Request &Out,
                         std::string *Err) {
  Out = Request();
  auto Field = [](Cursor &C, const std::string &Key, bool &Known,
                  void *Ctx) -> bool {
    Request &R = *static_cast<Request *>(Ctx);
    Known = true;
    if (Key == "id")
      return C.uint(R.Id);
    if (Key == "method")
      return C.str(R.Method);
    if (Key == "source")
      return C.str(R.Source);
    if (Key == "predictor")
      return C.str(R.Predictor);
    if (Key == "ranges")
      return C.boolean(R.DumpRanges);
    if (Key == "step_limit")
      return C.uint(R.StepLimit);
    if (Key == "deadline_ms")
      return C.uint(R.DeadlineMs);
    Known = false;
    return true;
  };
  if (!scanObject(Json, Err, Field, &Out))
    return false;
  if (Out.Method.empty()) {
    if (Err)
      *Err = "request lacks a method";
    return false;
  }
  return true;
}

bool serve::parseResponse(const std::string &Json, Response &Out,
                          std::string *Err) {
  Out = Response();
  std::string StatusName = "ok";
  struct Ctx {
    Response *R;
    std::string *StatusName;
  } Context{&Out, &StatusName};
  auto Field = [](Cursor &C, const std::string &Key, bool &Known,
                  void *Raw) -> bool {
    Ctx &X = *static_cast<Ctx *>(Raw);
    Known = true;
    if (Key == "id")
      return C.uint(X.R->Id);
    if (Key == "status")
      return C.str(*X.StatusName);
    if (Key == "degraded")
      return C.boolean(X.R->Degraded);
    if (Key == "payload")
      return C.str(X.R->Payload);
    if (Key == "category")
      return C.str(X.R->Category);
    if (Key == "site")
      return C.str(X.R->Site);
    if (Key == "message")
      return C.str(X.R->Message);
    Known = false;
    return true;
  };
  if (!scanObject(Json, Err, Field, &Context))
    return false;
  if (StatusName == "ok")
    Out.Status = RespStatus::Ok;
  else if (StatusName == "error")
    Out.Status = RespStatus::Error;
  else if (StatusName == "shed")
    Out.Status = RespStatus::Shed;
  else {
    if (Err)
      *Err = "unknown response status '" + StatusName + "'";
    return false;
  }
  return true;
}
