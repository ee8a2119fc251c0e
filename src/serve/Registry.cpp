//===- serve/Registry.cpp -------------------------------------------------===//

#include "serve/Registry.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <sstream>

using namespace jitml;

std::optional<uint64_t>
ServeModel::predict(OptLevel Level, const FeatureVector &Features) const {
  return Set.predict(Level, Features);
}

ModelRegistry::ModelRegistry() = default;

uint64_t ModelRegistry::install(ModelSet Set) {
  auto Model = std::make_shared<ServeModel>();
  Model->Set = std::move(Set);
  std::lock_guard<std::mutex> Lock(Mu);
  Model->Version = NextVersion++;
  Current = std::move(Model);
  ++ReloadCount;
  MetricRegistry::global().counter("serve.reloads").add();
  MetricRegistry::global().gauge("serve.model_version")
      .set((int64_t)Current->Version);
  return Current->Version;
}

std::shared_ptr<const ServeModel> ModelRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Current;
}

uint64_t ModelRegistry::version() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Current ? Current->Version : 0;
}

uint64_t ModelRegistry::reloads() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ReloadCount;
}

uint64_t ModelRegistry::reloadFailures() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ReloadFailed;
}

bool ModelRegistry::reloadFromFile(const std::string &BundlePath) {
  auto Fail = [&] {
    std::lock_guard<std::mutex> Lock(Mu);
    ++ReloadFailed;
    MetricRegistry::global().counter("serve.reload_failed").add();
    return false;
  };
  if (JITML_FAULT_POINT("serve.reload.torn"))
    return Fail(); // simulated torn file: the read raced the writer
  std::FILE *F = std::fopen(BundlePath.c_str(), "r");
  if (!F)
    return Fail();
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  ModelSet Set;
  if (!parseBundle(Text, Set))
    return Fail();
  install(std::move(Set));
  return true;
}

std::string ModelRegistry::bundleText(const ModelSet &Set) {
  std::string Out = "jitml-serve-bundle v1\n";
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    const LevelModel &LM = Set.Levels[L];
    if (!LM.Valid)
      continue;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "@level %u\n", L);
    Out += Buf;
    Out += "@scaling\n";
    Out += LM.Scale.toText();
    Out += "@labels\n";
    Out += LM.Labels.toText();
    Out += "@model\n";
    Out += LM.Model.toText();
  }
  Out += "@end\n";
  return Out;
}

namespace {

/// Collects lines until the next @-marker (exclusive) into one string.
std::string takeSection(std::istringstream &In, std::string &Line,
                        bool &LineValid) {
  std::string Section;
  while ((LineValid = (bool)std::getline(In, Line))) {
    if (!Line.empty() && Line[0] == '@')
      break;
    Section += Line;
    Section += '\n';
  }
  return Section;
}

} // namespace

bool ModelRegistry::parseBundle(const std::string &Text, ModelSet &Out,
                                std::string *Error) {
  auto Fail = [&](const char *Why) {
    if (Error)
      *Error = Why;
    return false;
  };
  Out = ModelSet();
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "jitml-serve-bundle v1")
    return Fail("missing bundle header");
  bool LineValid = (bool)std::getline(In, Line);
  bool SawEnd = false;
  while (LineValid) {
    if (Line == "@end") {
      SawEnd = true;
      break;
    }
    unsigned LevelIdx = 0;
    if (std::sscanf(Line.c_str(), "@level %u", &LevelIdx) != 1 ||
        LevelIdx >= NumOptLevels)
      return Fail("expected @level section");
    LevelModel &LM = Out.Levels[LevelIdx];
    if (LM.Valid)
      return Fail("duplicate @level section");
    if (!std::getline(In, Line) || Line != "@scaling")
      return Fail("expected @scaling");
    std::string ScalingText = takeSection(In, Line, LineValid);
    if (!LineValid || Line != "@labels")
      return Fail("expected @labels");
    std::string LabelsText = takeSection(In, Line, LineValid);
    if (!LineValid || Line != "@model")
      return Fail("expected @model");
    std::string ModelText = takeSection(In, Line, LineValid);
    if (!Scaling::fromText(ScalingText, LM.Scale))
      return Fail("bad scaling section");
    if (!LabelMap::fromText(LabelsText, LM.Labels))
      return Fail("bad labels section");
    if (!LinearModel::fromText(ModelText, LM.Model))
      return Fail("bad model section");
    if (LM.Model.numFeatures() != NumFeatures)
      return Fail("model feature count mismatch");
    LM.Valid = true;
    // takeSection left the next @-marker (or EOF) in Line/LineValid.
  }
  if (!SawEnd)
    return Fail("truncated bundle (missing @end)");
  return true;
}
