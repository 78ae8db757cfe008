//===- RunReport.cpp - Structured run reports -----------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "diag/RunReport.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace tdr;
using namespace tdr::diag;

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

namespace {

void escape(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

void appendUInt(std::string &Out, uint64_t V) {
  Out += strFormat("%llu", static_cast<unsigned long long>(V));
}

void appendPos(std::string &Out, const SourcePos &P, bool WithText) {
  Out += "\"line\":";
  appendUInt(Out, P.Line);
  Out += ",\"col\":";
  appendUInt(Out, P.Col);
  if (WithText) {
    Out += ",\"line_text\":";
    escape(Out, P.LineText);
  }
}

void appendAccess(std::string &Out, const AccessDesc &A) {
  Out += "{\"step\":";
  appendUInt(Out, A.Step);
  Out += ",\"kind\":\"";
  Out += accessKindName(A.Kind);
  Out += "\",";
  appendPos(Out, A.Pos, /*WithText=*/true);
  Out += '}';
}

void appendSpine(std::string &Out, const std::vector<SpineEntry> &Spine) {
  Out += '[';
  for (size_t I = 0; I != Spine.size(); ++I) {
    if (I)
      Out += ',';
    const SpineEntry &E = Spine[I];
    Out += "{\"id\":";
    appendUInt(Out, E.Id);
    Out += ",\"kind\":\"";
    Out += dpstKindName(E.Kind);
    Out += "\",";
    appendPos(Out, E.Pos, /*WithText=*/false);
    Out += '}';
  }
  Out += ']';
}

void appendWitness(std::string &Out, const RaceWitness &W) {
  Out += "{\"location\":";
  escape(Out, W.Location);
  Out += ",\"src\":";
  appendAccess(Out, W.Src);
  Out += ",\"snk\":";
  appendAccess(Out, W.Snk);
  Out += ",\"lca\":{\"id\":";
  appendUInt(Out, W.LcaId);
  Out += ",\"kind\":\"";
  Out += dpstKindName(W.LcaKind);
  Out += "\"},\"breaking_async\":";
  if (W.HasBreakingAsync) {
    Out += "{\"id\":";
    appendUInt(Out, W.BreakingAsyncId);
    Out += ',';
    appendPos(Out, W.BreakingAsyncPos, /*WithText=*/true);
    Out += '}';
  } else {
    Out += "null";
  }
  Out += ",\"src_spine\":";
  appendSpine(Out, W.SrcSpine);
  Out += ",\"snk_spine\":";
  appendSpine(Out, W.SnkSpine);
  Out += '}';
}

void appendProvenance(std::string &Out, const FinishProvenance &P) {
  Out += "{\"iteration\":";
  appendUInt(Out, P.Iteration);
  Out += ",\"group_lca\":";
  appendUInt(Out, P.GroupLcaId);
  Out += ",\"construct\":";
  escape(Out, P.Construct);
  Out += ",\"anchor\":{";
  appendPos(Out, P.Anchor, /*WithText=*/true);
  Out += "},\"dynamic_instances\":";
  appendUInt(Out, P.DynamicInstances);
  Out += ",\"cost_before\":";
  appendUInt(Out, P.CostBefore);
  Out += ",\"cost_after\":";
  appendUInt(Out, P.CostAfter);
  Out += ",\"forced_edges\":[";
  for (size_t I = 0; I != P.ForcedEdges.size(); ++I) {
    if (I)
      Out += ',';
    Out += '[';
    appendUInt(Out, P.ForcedEdges[I].first);
    Out += ',';
    appendUInt(Out, P.ForcedEdges[I].second);
    Out += ']';
  }
  Out += "],\"alternatives\":[";
  for (size_t I = 0; I != P.Alternatives.size(); ++I) {
    if (I)
      Out += ',';
    const RepairAlternative &A = P.Alternatives[I];
    Out += "{\"construct\":";
    escape(Out, A.Construct);
    Out += ",\"feasible\":";
    Out += A.Feasible ? "true" : "false";
    Out += ",\"cost\":";
    appendUInt(Out, A.Cost);
    Out += ",\"reason\":";
    escape(Out, A.Reason);
    Out += '}';
  }
  Out += "],\"rejected\":[";
  for (size_t I = 0; I != P.Rejected.size(); ++I) {
    if (I)
      Out += ',';
    Out += "{\"begin\":";
    appendUInt(Out, P.Rejected[I].Begin);
    Out += ",\"end\":";
    appendUInt(Out, P.Rejected[I].End);
    Out += ",\"reason\":";
    escape(Out, P.Rejected[I].Reason);
    Out += '}';
  }
  Out += "]}";
}

void appendJob(std::string &Out, const JobReport &J) {
  Out += "  {\"name\":";
  escape(Out, J.Name);
  Out += ",\"args\":[";
  for (size_t I = 0; I != J.Args.size(); ++I) {
    if (I)
      Out += ',';
    Out += strFormat("%lld", static_cast<long long>(J.Args[I]));
  }
  Out += "],\"success\":";
  Out += J.Success ? "true" : "false";
  Out += ",\"error\":";
  escape(Out, J.Error);
  Out += ",\n   \"stats\":{\"iterations\":";
  appendUInt(Out, J.Stats.Iterations);
  Out += ",\"finishes_inserted\":";
  appendUInt(Out, J.Stats.FinishesInserted);
  Out += ",\"forces_inserted\":";
  appendUInt(Out, J.Stats.ForcesInserted);
  Out += ",\"isolated_inserted\":";
  appendUInt(Out, J.Stats.IsolatedInserted);
  Out += ",\"interpretations\":";
  appendUInt(Out, J.Stats.Interpretations);
  Out += ",\"replays\":";
  appendUInt(Out, J.Stats.Replays);
  Out += ",\"races_raw\":";
  appendUInt(Out, J.Stats.RawRaces);
  Out += ",\"race_pairs\":";
  appendUInt(Out, J.Stats.RacePairs);
  Out += ",\"dpst_nodes\":";
  appendUInt(Out, J.Stats.DpstNodes);
  Out += "},\n   \"iterations\":[";
  for (size_t I = 0; I != J.Diag.Iterations.size(); ++I) {
    const IterationDiag &It = J.Diag.Iterations[I];
    if (I)
      Out += ',';
    Out += "\n    {\"iteration\":";
    appendUInt(Out, It.Iteration);
    Out += ",\"replayed\":";
    Out += It.Replayed ? "true" : "false";
    Out += ",\"witnesses\":[";
    for (size_t K = 0; K != It.Witnesses.size(); ++K) {
      if (K)
        Out += ',';
      Out += "\n     ";
      appendWitness(Out, It.Witnesses[K]);
    }
    Out += "]}";
  }
  Out += "],\n   \"provenance\":[";
  for (size_t I = 0; I != J.Diag.Repairs.size(); ++I) {
    if (I)
      Out += ',';
    Out += "\n    ";
    appendProvenance(Out, J.Diag.Repairs[I]);
  }
  Out += "]}";
}

} // namespace

std::string diag::renderRunReportJson(const RunReport &R) {
  std::string Out;
  Out += "{\"schema\":\"";
  Out += ReportSchemaName;
  Out += "\",\"version\":";
  appendUInt(Out, ReportSchemaVersion);
  Out += ",\"tool\":";
  escape(Out, R.Tool);
  Out += ",\"mode\":";
  escape(Out, R.Mode);
  Out += ",\n \"jobs\":[";
  for (size_t I = 0; I != R.Jobs.size(); ++I) {
    if (I)
      Out += ',';
    Out += '\n';
    appendJob(Out, R.Jobs[I]);
  }
  Out += "]}\n";
  return Out;
}

bool diag::writeRunReport(const RunReport &R, const std::string &Path,
                          std::string *Error) {
  std::string Doc = renderRunReportJson(R);
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    if (Error)
      *Error = strFormat("cannot open '%s' for writing", Path.c_str());
    return false;
  }
  size_t N = std::fwrite(Doc.data(), 1, Doc.size(), F);
  bool Ok = N == Doc.size() && std::fclose(F) == 0;
  if (!Ok && Error)
    *Error = strFormat("short write to '%s'", Path.c_str());
  return Ok;
}

//===----------------------------------------------------------------------===//
// Explain rendering (JSON document -> text)
//===----------------------------------------------------------------------===//

namespace {

AccessKind parseAccessKind(const std::string &S) {
  return S == "write" ? AccessKind::Write : AccessKind::Read;
}

DpstKind parseDpstKind(const std::string &S) {
  if (S == "async")
    return DpstKind::Async;
  if (S == "finish")
    return DpstKind::Finish;
  if (S == "scope")
    return DpstKind::Scope;
  if (S == "step")
    return DpstKind::Step;
  return DpstKind::Root;
}

SourcePos posFromJson(const json::Value &V) {
  SourcePos P;
  P.Line = static_cast<uint32_t>(V.getNumber("line"));
  P.Col = static_cast<uint32_t>(V.getNumber("col"));
  P.LineText = V.getString("line_text");
  return P;
}

AccessDesc accessFromJson(const json::Value &V) {
  AccessDesc A;
  A.Step = static_cast<uint32_t>(V.getNumber("step"));
  A.Kind = parseAccessKind(V.getString("kind"));
  A.Pos = posFromJson(V);
  return A;
}

std::vector<SpineEntry> spineFromJson(const json::Value *V) {
  std::vector<SpineEntry> Out;
  if (!V || !V->isArray())
    return Out;
  for (const json::Value &E : V->elements()) {
    SpineEntry S;
    S.Id = static_cast<uint32_t>(E.getNumber("id"));
    S.Kind = parseDpstKind(E.getString("kind"));
    S.Pos = posFromJson(E);
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Rehydrates the witness struct so explain reuses the one text renderer.
RaceWitness witnessFromJson(const json::Value &V) {
  RaceWitness W;
  W.Location = V.getString("location");
  if (const json::Value *Src = V.get("src"))
    W.Src = accessFromJson(*Src);
  if (const json::Value *Snk = V.get("snk"))
    W.Snk = accessFromJson(*Snk);
  if (const json::Value *Lca = V.get("lca")) {
    W.LcaId = static_cast<uint32_t>(Lca->getNumber("id"));
    W.LcaKind = parseDpstKind(Lca->getString("kind"));
  }
  if (const json::Value *BA = V.get("breaking_async");
      BA && BA->isObject()) {
    W.HasBreakingAsync = true;
    W.BreakingAsyncId = static_cast<uint32_t>(BA->getNumber("id"));
    W.BreakingAsyncPos = posFromJson(*BA);
  }
  W.SrcSpine = spineFromJson(V.get("src_spine"));
  W.SnkSpine = spineFromJson(V.get("snk_spine"));
  return W;
}

const char *sgr(bool Color, const char *Code) { return Color ? Code : ""; }

void renderJob(const json::Value &J, const std::string &Tool, bool Color,
               std::string &Out) {
  Out += sgr(Color, "\033[1m");
  Out += strFormat("job: %s", J.getString("name", "<unnamed>").c_str());
  Out += sgr(Color, "\033[0m");
  if (const json::Value *Args = J.get("args");
      Args && Args->isArray() && !Args->elements().empty()) {
    Out += " args:";
    for (const json::Value &A : Args->elements())
      Out += strFormat(" %lld", static_cast<long long>(A.asNumber()));
  }
  // A races job's "success" means "race free" — detection that *finds*
  // races did its job, so don't call it failed.
  bool Success = J.getBool("success");
  if (Tool == "races")
    Out += Success ? "  [race free]" : "  [races found]";
  else
    Out += Success ? "  [ok]" : "  [failed]";
  Out += '\n';
  std::string Err = J.getString("error");
  if (!Err.empty())
    Out += strFormat("  error: %s\n", Err.c_str());

  if (const json::Value *S = J.get("stats")) {
    Out += strFormat(
        "  stats: %llu iteration(s), %llu finish(es), %llu force(s), "
        "%llu isolated inserted, "
        "%llu interpretation(s), %llu replay(s), %llu raw race(s), "
        "%llu pair(s), %llu dpst node(s)\n",
        static_cast<unsigned long long>(S->getNumber("iterations")),
        static_cast<unsigned long long>(S->getNumber("finishes_inserted")),
        static_cast<unsigned long long>(S->getNumber("forces_inserted")),
        static_cast<unsigned long long>(S->getNumber("isolated_inserted")),
        static_cast<unsigned long long>(S->getNumber("interpretations")),
        static_cast<unsigned long long>(S->getNumber("replays")),
        static_cast<unsigned long long>(S->getNumber("races_raw")),
        static_cast<unsigned long long>(S->getNumber("race_pairs")),
        static_cast<unsigned long long>(S->getNumber("dpst_nodes")));
  }

  if (const json::Value *Its = J.get("iterations"); Its && Its->isArray()) {
    for (const json::Value &It : Its->elements()) {
      const json::Value *Ws = It.get("witnesses");
      size_t N = Ws && Ws->isArray() ? Ws->elements().size() : 0;
      Out += strFormat("  iteration %llu (%s): %zu race(s)\n",
                       static_cast<unsigned long long>(
                           It.getNumber("iteration")),
                       It.getBool("replayed") ? "replayed" : "interpreted",
                       N);
      if (!N)
        continue;
      size_t I = 0;
      for (const json::Value &WV : Ws->elements()) {
        RaceWitness W = witnessFromJson(WV);
        std::string Text = strFormat("[%zu/%zu] ", ++I, N) +
                           renderWitnessText(W, Color);
        // Indent the witness block under the iteration line.
        size_t Pos = 0;
        while (Pos < Text.size()) {
          size_t Nl = Text.find('\n', Pos);
          if (Nl == std::string::npos)
            Nl = Text.size();
          Out += "    ";
          Out.append(Text, Pos, Nl - Pos);
          Out += '\n';
          Pos = Nl + 1;
        }
      }
    }
  }

  if (const json::Value *Prov = J.get("provenance");
      Prov && Prov->isArray() && !Prov->elements().empty()) {
    Out += strFormat("  inserted repairs (%zu):\n",
                     Prov->elements().size());
    size_t I = 0;
    for (const json::Value &P : Prov->elements()) {
      ++I;
      std::string Where = "at <unknown>";
      if (const json::Value *A = P.get("anchor");
          A && A->getNumber("line") > 0)
        Where = strFormat("at %u:%u",
                          static_cast<uint32_t>(A->getNumber("line")),
                          static_cast<uint32_t>(A->getNumber("col")));
      Out += strFormat(
          "    %s %zu (iteration %llu) %s: group ns-lca node %llu, "
          "%llu dynamic instance(s)\n",
          P.getString("construct", "finish").c_str(), I,
          static_cast<unsigned long long>(P.getNumber("iteration")),
          Where.c_str(),
          static_cast<unsigned long long>(P.getNumber("group_lca")),
          static_cast<unsigned long long>(P.getNumber("dynamic_instances")));
      if (const json::Value *A = P.get("anchor")) {
        std::string LineText = A->getString("line_text");
        if (!LineText.empty())
          Out += strFormat("      %4u | %s\n",
                           static_cast<uint32_t>(A->getNumber("line")),
                           LineText.c_str());
      }
      Out += strFormat(
          "      critical path %llu -> %llu work unit(s)\n",
          static_cast<unsigned long long>(P.getNumber("cost_before")),
          static_cast<unsigned long long>(P.getNumber("cost_after")));
      if (const json::Value *E = P.get("forced_edges");
          E && E->isArray() && !E->elements().empty()) {
        Out += "      forced by dependence edge(s):";
        for (const json::Value &Edge : E->elements()) {
          if (Edge.isArray() && Edge.elements().size() == 2)
            Out += strFormat(
                " %lld->%lld",
                static_cast<long long>(Edge.elements()[0].asNumber()),
                static_cast<long long>(Edge.elements()[1].asNumber()));
        }
        Out += '\n';
      }
      if (const json::Value *Rej = P.get("rejected");
          Rej && Rej->isArray() && !Rej->elements().empty()) {
        Out += strFormat("      rejected alternative(s): %zu\n",
                         Rej->elements().size());
        for (const json::Value &RV : Rej->elements())
          Out += strFormat(
              "        range [%lld, %lld]: %s\n",
              static_cast<long long>(RV.getNumber("begin")),
              static_cast<long long>(RV.getNumber("end")),
              RV.getString("reason", "?").c_str());
      }
    }
  }
}

} // namespace

bool diag::renderExplainText(const json::Value &Doc, bool Color,
                             std::string &Out, std::string &Error) {
  if (!Doc.isObject()) {
    Error = "not a JSON object";
    return false;
  }
  if (Doc.getString("schema") != ReportSchemaName) {
    Error = strFormat("not a %s document (schema: \"%s\")", ReportSchemaName,
                      Doc.getString("schema", "<missing>").c_str());
    return false;
  }
  if (static_cast<int>(Doc.getNumber("version", -1)) != ReportSchemaVersion) {
    Error = strFormat("unsupported report version %g (expected %d)",
                      Doc.getNumber("version", -1), ReportSchemaVersion);
    return false;
  }

  Out += sgr(Color, "\033[1m");
  Out += strFormat("tdr run report — tool: %s, mode: %s",
                   Doc.getString("tool", "?").c_str(),
                   Doc.getString("mode", "?").c_str());
  Out += sgr(Color, "\033[0m");
  Out += '\n';

  const json::Value *Jobs = Doc.get("jobs");
  if (!Jobs || !Jobs->isArray()) {
    Error = "report has no jobs array";
    return false;
  }
  for (const json::Value &J : Jobs->elements()) {
    Out += '\n';
    renderJob(J, Doc.getString("tool"), Color, Out);
  }
  return true;
}
