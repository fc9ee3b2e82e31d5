//===- Oracles.cpp - Soundness and metamorphic fuzzing oracles ----------------===//

#include "fuzz/Oracles.h"

#include "cegar/Abstractor.h"
#include "cert/CertChecker.h"
#include "cert/Certificate.h"
#include "search/Checkpoint.h"
#include "service/VerificationService.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

using namespace charon;

namespace {

/// Per-oracle-call cap so one broken transformer does not flood the report
/// with thousands of near-identical escapes.
constexpr int MaxViolationsPerCheck = 4;

std::string vecToString(const Vector &X) {
  std::ostringstream Os;
  Os << std::setprecision(17) << "[";
  for (size_t I = 0; I < X.size(); ++I)
    Os << (I ? " " : "") << X[I];
  Os << "]";
  return Os.str();
}

/// Numeric slack for a comparison around magnitude \p Scale.
double slack(const OracleConfig &Cfg, double Scale) {
  return Cfg.Tolerance * std::max(1.0, std::fabs(Scale));
}

/// A random axis-aligned sub-box of \p B.
Box randomSubBox(const Box &B, Rng &R) {
  Vector Lo(B.dim()), Hi(B.dim());
  for (size_t I = 0; I < B.dim(); ++I) {
    double A = B.lower()[I] + R.uniform() * B.width(I);
    double C = B.lower()[I] + R.uniform() * B.width(I);
    Lo[I] = std::min(A, C);
    Hi[I] = std::max(A, C);
  }
  return Box(std::move(Lo), std::move(Hi));
}

/// A random corner of \p B.
Vector randomCorner(const Box &B, Rng &R) {
  Vector X(B.dim());
  for (size_t I = 0; I < B.dim(); ++I)
    X[I] = R.next() & 1 ? B.upper()[I] : B.lower()[I];
  return X;
}

/// The small L-infinity box around \p X clipped to \p Outer.
Box pointNeighborhood(const Vector &X, const Box &Outer, double HalfWidth) {
  Vector Lo(X.size()), Hi(X.size());
  for (size_t I = 0; I < X.size(); ++I) {
    Lo[I] = std::max(Outer.lower()[I], X[I] - HalfWidth);
    Hi[I] = std::min(Outer.upper()[I], std::max(Lo[I], X[I] + HalfWidth));
  }
  return Box(std::move(Lo), std::move(Hi));
}

bool decided(Outcome O) { return O != Outcome::Timeout; }

bool statsEqualIgnoringTime(const VerifyStats &A, const VerifyStats &B) {
  return A.PgdCalls == B.PgdCalls && A.AnalyzeCalls == B.AnalyzeCalls &&
         A.Splits == B.Splits && A.MaxDepth == B.MaxDepth &&
         A.IntervalChoices == B.IntervalChoices &&
         A.ZonotopeChoices == B.ZonotopeChoices &&
         A.DisjunctSum == B.DisjunctSum && A.NodesExpanded == B.NodesExpanded;
}

bool sameVector(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

} // namespace

VerifierConfig charon::oracleVerifierConfig(const OracleConfig &Cfg) {
  VerifierConfig VC;
  VC.Delta = Cfg.Delta;
  VC.TimeLimitSeconds = Cfg.VerifyBudgetSeconds;
  VC.Seed = Cfg.VerifierSeed;
  return VC;
}

std::vector<OracleViolation>
charon::checkContainment(const Network &Net, const Box &Region,
                         const DomainSpec &Spec, const OracleConfig &Cfg,
                         Rng &R) {
  std::vector<OracleViolation> Out;
  const std::string Name = "containment:" + toString(Spec);

  std::unique_ptr<AbstractElement> Elem = makeElement(Region, Spec);
  propagate(Net, *Elem);

  const size_t M = Net.outputSize();
  Vector Lo(M), Hi(M);
  for (size_t I = 0; I < M; ++I) {
    Lo[I] = Elem->lowerBound(I) + Cfg.InjectTighten;
    Hi[I] = Elem->upperBound(I) - Cfg.InjectTighten;
  }

  auto CheckPoint = [&](const Vector &X) {
    if (Out.size() >= MaxViolationsPerCheck)
      return;
    Vector Y = Net.evaluate(X);
    for (size_t I = 0; I < M; ++I) {
      double S = slack(Cfg, Y[I]);
      if (Y[I] < Lo[I] - S || Y[I] > Hi[I] + S) {
        std::ostringstream Os;
        Os << std::setprecision(17) << "output " << I << " = " << Y[I]
           << " escapes [" << Lo[I] << ", " << Hi[I] << "] at x = "
           << vecToString(X);
        Out.push_back({Name, Os.str()});
        return;
      }
    }
    for (size_t K = 0; K < M; ++K)
      for (size_t J = 0; J < M; ++J) {
        if (J == K)
          continue;
        double Bound = Elem->lowerBoundDiff(K, J) + Cfg.InjectTighten;
        double Diff = Y[K] - Y[J];
        if (Diff < Bound - slack(Cfg, Diff)) {
          std::ostringstream Os;
          Os << std::setprecision(17) << "y_" << K << " - y_" << J << " = "
             << Diff << " below claimed lower bound " << Bound << " at x = "
             << vecToString(X);
          Out.push_back({Name, Os.str()});
          return;
        }
      }
  };

  CheckPoint(Region.center());
  for (int I = 0; I < 4; ++I)
    CheckPoint(randomCorner(Region, R));
  for (int I = 0; I < Cfg.ContainmentSamples; ++I)
    CheckPoint(Region.sample(R));
  return Out;
}

std::vector<OracleViolation>
charon::checkCounterexample(const Network &Net,
                            const RobustnessProperty &Prop,
                            const VerifyResult &Result,
                            const OracleConfig &Cfg) {
  std::vector<OracleViolation> Out;
  if (Result.Result != Outcome::Falsified)
    return Out;

  const Vector &Cex = Result.Counterexample;
  if (Cex.size() != Prop.Region.dim()) {
    Out.push_back({"counterexample",
                   "Falsified without a counterexample of the region's "
                   "dimension"});
    return Out;
  }
  if (!Prop.Region.contains(Cex, slack(Cfg, 1.0))) {
    Out.push_back({"counterexample",
                   "counterexample lies outside the property region: x = " +
                       vecToString(Cex)});
  }
  double F = Net.objective(Cex, Prop.TargetClass);
  if (F > Cfg.Delta + slack(Cfg, F)) {
    std::ostringstream Os;
    Os << std::setprecision(17) << "claimed counterexample has F(x) = " << F
       << " > delta = " << Cfg.Delta << " at x = " << vecToString(Cex);
    Out.push_back({"counterexample", Os.str()});
  }
  return Out;
}

std::vector<OracleViolation> charon::checkSubregionMonotonicity(
    const Network &Net, const RobustnessProperty &Prop,
    const VerifyResult &Full, const VerificationPolicy &Policy,
    const OracleConfig &Cfg, Rng &R) {
  std::vector<OracleViolation> Out;
  Verifier V(Net, Policy, oracleVerifierConfig(Cfg));

  if (Full.Result == Outcome::Verified) {
    // Concrete spot check: a Verified region can contain no point whose
    // objective is non-positive.
    for (int I = 0; I < 8 * std::max(1, Cfg.SubregionTrials); ++I) {
      Vector X = Prop.Region.sample(R);
      double F = Net.objective(X, Prop.TargetClass);
      if (F <= -slack(Cfg, F)) {
        std::ostringstream Os;
        Os << std::setprecision(17) << "Verified region contains F(x) = " << F
           << " <= 0 at x = " << vecToString(X);
        Out.push_back({"monotonicity:verified-sample", Os.str()});
        return Out;
      }
    }

    for (int T = 0; T < Cfg.SubregionTrials; ++T) {
      RobustnessProperty Sub = Prop;
      Sub.Region = randomSubBox(Prop.Region, R);
      VerifyResult SubResult = V.verify(Sub);
      if (SubResult.Result != Outcome::Falsified)
        continue;
      // Delta-completeness permits Falsified with F(x) in (0, delta] even
      // inside a truly robust region; only a strictly violating point
      // contradicts the parent's Verified verdict.
      double F = Net.objective(SubResult.Counterexample, Prop.TargetClass);
      if (F <= -slack(Cfg, F)) {
        std::ostringstream Os;
        Os << std::setprecision(17)
           << "subregion of a Verified region falsified with true "
              "counterexample (F = "
           << F << ") at x = " << vecToString(SubResult.Counterexample);
        Out.push_back({"monotonicity:subregion", Os.str()});
        return Out;
      }
    }
    return Out;
  }

  if (Full.Result == Outcome::Falsified &&
      Full.Counterexample.size() == Prop.Region.dim()) {
    // A true counterexample pins its whole neighborhood: no region that
    // contains it may verify.
    double F = Net.objective(Full.Counterexample, Prop.TargetClass);
    if (F <= -slack(Cfg, F)) {
      RobustnessProperty Pin = Prop;
      Pin.Region = pointNeighborhood(Full.Counterexample, Prop.Region,
                                     1e-3 * Prop.Region.diameter());
      VerifyResult PinResult = V.verify(Pin);
      if (PinResult.Result == Outcome::Verified) {
        std::ostringstream Os;
        Os << std::setprecision(17)
           << "region around true counterexample (F = " << F
           << ") was Verified; x = " << vecToString(Full.Counterexample);
        Out.push_back({"monotonicity:cex-neighborhood", Os.str()});
      }
    }
  }
  return Out;
}

std::vector<OracleViolation>
charon::checkVerdictAgreement(const Network &Net,
                              const RobustnessProperty &Prop,
                              const VerificationPolicy &Policy,
                              const OracleConfig &Cfg) {
  std::vector<OracleViolation> Out;
  VerifierConfig VC = oracleVerifierConfig(Cfg);
  Verifier V(Net, Policy, VC);

  VerifyResult Direct = V.verify(Prop);

  ThreadPool Pool(2);
  VerifyResult Parallel = V.verifyParallel(Prop, Pool);

  ServiceConfig SC;
  SC.Workers = 1;
  SC.EnableCache = false;
  VerificationService Service(Policy, SC);
  JobRequest Req;
  Req.Net = Service.registry().add(Net.clone());
  Req.Prop = Prop;
  Req.Config = VC;
  JobOutcome ServiceOut = Service.submit(Req).outcome();
  const VerifyResult &Serviced = ServiceOut.Result;

  auto Clash = [&](const VerifyResult &A, const VerifyResult &B,
                   const char *Which) {
    if (!decided(A.Result) || !decided(B.Result) || A.Result == B.Result)
      return;
    // Verified-vs-Falsified is only a genuine contradiction when the
    // counterexample strictly violates the property (the (0, delta] band
    // is legal for both verdicts under delta-completeness).
    const VerifyResult &Fals = A.Result == Outcome::Falsified ? A : B;
    double F = Net.objective(Fals.Counterexample, Prop.TargetClass);
    if (F <= -slack(Cfg, F)) {
      std::ostringstream Os;
      Os << std::setprecision(17) << Which << " verdicts contradict: "
         << toString(A.Result) << " vs " << toString(B.Result)
         << " with true counterexample (F = " << F << ") at x = "
         << vecToString(Fals.Counterexample);
      Out.push_back({"agreement", Os.str()});
    }
  };
  Clash(Direct, Parallel, "verify/verifyParallel");
  Clash(Direct, Serviced, "verify/service");
  Clash(Parallel, Serviced, "verifyParallel/service");

  // The service path runs the same sequential verifier with the same seed,
  // so on a cache miss it is documented to be bit-identical to verify().
  // Timing can only perturb a run once its deadline is hit mid-flight, so
  // the comparison is made when both runs finished well inside the budget
  // (every deadline poll returned false -> identical execution paths).
  bool TimingClean =
      decided(Direct.Result) && decided(Serviced.Result) &&
      (VC.TimeLimitSeconds <= 0.0 ||
       (Direct.Stats.Seconds < 0.5 * VC.TimeLimitSeconds &&
        ServiceOut.RunSeconds < 0.5 * VC.TimeLimitSeconds));
  if (TimingClean) {
    bool SameCex =
        Direct.Counterexample.size() == Serviced.Counterexample.size();
    if (SameCex)
      for (size_t I = 0; I < Direct.Counterexample.size(); ++I)
        SameCex &= Direct.Counterexample[I] == Serviced.Counterexample[I];
    if (Direct.Result != Serviced.Result || !SameCex ||
        !statsEqualIgnoringTime(Direct.Stats, Serviced.Stats)) {
      std::ostringstream Os;
      Os << "service path diverged from direct verify(): "
         << toString(Direct.Result) << " vs " << toString(Serviced.Result)
         << " (stats "
         << (statsEqualIgnoringTime(Direct.Stats, Serviced.Stats) ? "equal"
                                                                  : "differ")
         << ")";
      Out.push_back({"agreement:service-identity", Os.str()});
    }
  }

  for (auto &V2 : checkCounterexample(Net, Prop, Parallel, Cfg))
    Out.push_back({"agreement:parallel-cex", V2.Message});
  for (auto &V3 : checkCounterexample(Net, Prop, Serviced, Cfg))
    Out.push_back({"agreement:service-cex", V3.Message});
  return Out;
}

std::vector<OracleViolation>
charon::checkCheckpointResume(const Network &Net,
                              const RobustnessProperty &Prop,
                              const VerificationPolicy &Policy,
                              const OracleConfig &Cfg, Rng &R) {
  std::vector<OracleViolation> Out;
  VerifierConfig VC = oracleVerifierConfig(Cfg);
  Verifier V(Net, Policy, VC);

  VerifyResult Full = V.verify(Prop);
  if (Full.Result == Outcome::Timeout)
    return Out; // the reference run itself was truncated; nothing to compare

  // Interrupt at a random fraction of the uninterrupted run's cost. The cut
  // may land anywhere — including after the run would have finished, which
  // degenerates into a direct determinism check.
  VerifierConfig Cut = VC;
  Cut.TimeLimitSeconds =
      R.uniform(0.05, 0.75) * std::max(Full.Stats.Seconds, 1e-3);
  Verifier Interrupted(Net, Policy, Cut);

  VerifyResult Step = Interrupted.verify(Prop);
  int Resumes = 0;
  while (Step.Result == Outcome::Timeout) {
    if (!Step.Checkpoint) {
      Out.push_back({"checkpoint:missing",
                     "Timeout verdict carried no resumable checkpoint"});
      return Out;
    }
    std::string First = serializeCheckpoint(*Step.Checkpoint);
    auto Reparsed = deserializeCheckpoint(First);
    if (!Reparsed || serializeCheckpoint(*Reparsed) != First) {
      Out.push_back({"checkpoint:roundtrip",
                     "checkpoint did not round-trip byte-identically "
                     "through serialize -> deserialize -> serialize"});
      return Out;
    }
    if (++Resumes > 64)
      return Out; // budget too small to ever finish; nothing to compare
    // Resume under the reference budget (the checkpoint digest is
    // budget-free, so changing the deadline must be accepted).
    Step = V.verify(Prop, &*Reparsed);
  }

  if (Step.Result != Full.Result) {
    std::ostringstream Os;
    Os << "resumed run decided " << toString(Step.Result)
       << " but the uninterrupted run decided " << toString(Full.Result)
       << " after " << Resumes << " resume(s)";
    Out.push_back({"checkpoint:verdict", Os.str()});
    return Out;
  }
  if (!sameVector(Step.Counterexample, Full.Counterexample) ||
      Step.ObjectiveAtCex != Full.ObjectiveAtCex) {
    Out.push_back({"checkpoint:counterexample",
                   "resumed run's counterexample differs from the "
                   "uninterrupted run's: " +
                       vecToString(Step.Counterexample) + " vs " +
                       vecToString(Full.Counterexample)});
  }
  if (!statsEqualIgnoringTime(Step.Stats, Full.Stats)) {
    std::ostringstream Os;
    Os << "resumed run's accumulated stats differ from the uninterrupted "
          "run's (nodes "
       << Step.Stats.NodesExpanded << " vs " << Full.Stats.NodesExpanded
       << ", splits " << Step.Stats.Splits << " vs " << Full.Stats.Splits
       << ") after " << Resumes << " resume(s)";
    Out.push_back({"checkpoint:stats", Os.str()});
  }
  return Out;
}

std::vector<OracleViolation>
charon::checkPowersetPrecision(const Network &Net, const Box &Region,
                               size_t K, BaseDomainKind Base, int Disjuncts,
                               const OracleConfig &Cfg) {
  std::vector<OracleViolation> Out;
  DomainSpec Single{Base, 1};
  DomainSpec Power{Base, Disjuncts};
  AnalysisResult BaseResult = analyzeRobustness(Net, Region, K, Single);
  AnalysisResult PowerResult = analyzeRobustness(Net, Region, K, Power);
  if (BaseResult.TimedOut || PowerResult.TimedOut)
    return Out;
  if (PowerResult.Margin < BaseResult.Margin - slack(Cfg, BaseResult.Margin)) {
    std::ostringstream Os;
    Os << std::setprecision(17) << toString(Power) << " margin "
       << PowerResult.Margin << " is looser than " << toString(Single)
       << " margin " << BaseResult.Margin;
    Out.push_back({"precision:" + toString(Power), Os.str()});
  }
  return Out;
}

std::vector<OracleViolation>
charon::checkCegarSoundness(const Network &Net, const RobustnessProperty &Prop,
                            const VerificationPolicy &Policy,
                            const OracleConfig &Cfg, Rng &R) {
  std::vector<OracleViolation> Out;
  if (!canAbstract(Net))
    return Out;

  const size_t K = Prop.TargetClass;
  const double Ratio = R.uniform(0.1, 0.8);
  RefinementMap Map = initialPartition(Net, K, Ratio);
  if (Map.Layers.empty())
    return Out;

  // Abstract output j+1 models the margin of the j-th competitor class (in
  // increasing class order, skipping K); output 0 is the constant-zero
  // stand-in for the target class itself.
  std::vector<size_t> Competitors;
  for (size_t C = 0; C < Net.outputSize(); ++C)
    if (C != K)
      Competitors.push_back(C);

  auto checkDomination = [&](const Network &Abstract, const char *Name) {
    auto CheckPoint = [&](const Vector &X) {
      if (Out.size() >= MaxViolationsPerCheck)
        return;
      Vector Y = Net.evaluate(X);
      Vector A = Abstract.evaluate(X);
      for (size_t J = 0; J < Competitors.size(); ++J) {
        double TrueMargin = Y[Competitors[J]] - Y[K];
        double Claimed = A[J + 1] - Cfg.InjectTighten;
        if (TrueMargin > Claimed + slack(Cfg, TrueMargin)) {
          std::ostringstream Os;
          Os << std::setprecision(17) << "true margin of class "
             << Competitors[J] << " = " << TrueMargin
             << " escapes above abstract output " << Claimed
             << " (merge ratio " << Ratio << ", " << Map.abstractNeurons()
             << " abstract neurons) at x = " << vecToString(X);
          Out.push_back({Name, Os.str()});
          return;
        }
      }
      // Equivalent view at the objective level: the abstract net may only
      // under-claim robustness, never over-claim it.
      double FAbs = Abstract.objective(X, 0) + Cfg.InjectTighten;
      double FOrig = Net.objective(X, K);
      if (FAbs > FOrig + slack(Cfg, FOrig)) {
        std::ostringstream Os;
        Os << std::setprecision(17) << "abstract objective " << FAbs
           << " exceeds original objective " << FOrig << " at x = "
           << vecToString(X);
        Out.push_back({Name, Os.str()});
      }
    };
    CheckPoint(Prop.Region.center());
    for (int I = 0; I < 2; ++I)
      CheckPoint(randomCorner(Prop.Region, R));
    for (int I = 0; I < Cfg.ContainmentSamples; ++I)
      CheckPoint(Prop.Region.sample(R));
  };

  Network Abstract = buildAbstractNetwork(Net, Map, Prop.Region.lower());
  checkDomination(Abstract, "cegar:containment");

  // Domination must survive refinement: split a few merged groups at random
  // probe points and re-check the rebuilt abstraction.
  for (int Step = 0; Step < 3; ++Step) {
    Vector Probe = Prop.Region.sample(R);
    if (refinePartition(Map, Net, Abstract, Probe, /*MaxSplits=*/2) == 0)
      break;
    Abstract = buildAbstractNetwork(Net, Map, Prop.Region.lower());
  }
  checkDomination(Abstract, "cegar:refined-containment");

  // Verdict cross-check: the CEGAR engine and the direct verifier run the
  // same delta-complete query, so (as in the agreement oracle) they may only
  // disagree inside the (0, delta] band — a Verified verdict on one side
  // with a true counterexample on the other is a soundness bug.
  VerifierConfig DirectVC = oracleVerifierConfig(Cfg);
  VerifierConfig CegarVC = DirectVC;
  CegarVC.Cegar.Enabled = true;
  CegarVC.Cegar.InitialMergeRatio = Ratio;
  VerifyResult Direct = Verifier(Net, Policy, DirectVC).verify(Prop);
  VerifyResult Cegar = Verifier(Net, Policy, CegarVC).verify(Prop);

  for (const OracleViolation &V : checkCounterexample(Net, Prop, Cegar, Cfg))
    Out.push_back({"cegar:cex", V.Message});

  if (decided(Direct.Result) && decided(Cegar.Result) &&
      Direct.Result != Cegar.Result) {
    const VerifyResult &Fals =
        Direct.Result == Outcome::Falsified ? Direct : Cegar;
    double F = Net.objective(Fals.Counterexample, K);
    if (F <= -slack(Cfg, F)) {
      std::ostringstream Os;
      Os << std::setprecision(17) << "cegar/direct verdicts contradict: "
         << toString(Cegar.Result) << " vs " << toString(Direct.Result)
         << " with true counterexample (F = " << F << ") at x = "
         << vecToString(Fals.Counterexample);
      Out.push_back({"cegar:agreement", Os.str()});
    }
  }
  return Out;
}

std::vector<OracleViolation>
charon::checkCertificates(const Network &Net, const RobustnessProperty &Prop,
                          const VerificationPolicy &Policy,
                          const OracleConfig &Cfg) {
  std::vector<OracleViolation> Out;
  VerifierConfig VC = oracleVerifierConfig(Cfg);
  VC.EmitCertificate = true;
  VerifyResult R = Verifier(Net, Policy, VC).verify(Prop);

  if (!decided(R.Result)) {
    if (R.Certificate)
      Out.push_back(
          {"certificate:timeout", "Timeout verdict carries a certificate"});
    return Out;
  }
  if (!R.Certificate) {
    Out.push_back({"certificate:missing",
                   std::string(toString(R.Result)) +
                       " verdict under EmitCertificate produced no "
                       "certificate (direct searches must always certify)"});
    return Out;
  }
  const ProofCertificate &Cert = *R.Certificate;

  // The canonical form must round-trip byte-identically, same contract as
  // SearchCheckpoint.
  std::string Text = serializeCertificate(Cert);
  std::optional<ProofCertificate> Back = deserializeCertificate(Text);
  if (!Back) {
    Out.push_back({"certificate:parse",
                   "serialized certificate does not parse back"});
    return Out;
  }
  if (serializeCertificate(*Back) != Text)
    Out.push_back({"certificate:round-trip",
                   "serialize -> deserialize -> serialize is not "
                   "byte-identical"});

  // The genuine (reparsed) certificate must be accepted as-is.
  CertCheckReport Rep = checkCertificate(Net, Prop, *Back);
  if (!Rep.Accepted) {
    Out.push_back({"certificate:rejected",
                   "checker rejects the genuine certificate: " +
                       (Rep.Errors.empty() ? std::string("(no error recorded)")
                                           : Rep.Errors.front())});
    return Out;
  }

  // Tampered copies must be rejected — a checker that blesses any of them
  // would certify claims nothing justified. InjectTighten widens the
  // checker's numeric slack to simulate exactly that laxness, so tests can
  // prove the tamper probes have teeth.
  CertCheckConfig CheckCfg;
  CheckCfg.MarginSlack = Cfg.InjectTighten;
  CheckCfg.ObjectiveSlack = Cfg.InjectTighten;
  auto ExpectReject = [&](const ProofCertificate &T, const char *What) {
    if (Out.size() >= MaxViolationsPerCheck)
      return;
    if (checkCertificate(Net, Prop, T, CheckCfg).Accepted)
      Out.push_back({"certificate:tamper-accepted",
                     std::string("checker accepts a certificate with ") +
                         What});
  };

  // (a) Forged leaf justification: inflate a verified leaf's recorded
  // margin past what replay can re-derive, or displace a counterexample
  // outside its leaf region.
  {
    ProofCertificate T = Cert;
    const char *What = nullptr;
    for (CertNode &N : T.Nodes) {
      if (N.Kind == CertNodeKind::Verified) {
        N.Margin += 0.125;
        What = "an inflated verified-leaf margin";
        break;
      }
      if (N.Kind == CertNodeKind::Falsified) {
        N.Cex[0] = N.Region.upper()[0] + 1.0;
        What = "a displaced counterexample";
        break;
      }
    }
    if (What)
      ExpectReject(T, What);
  }

  // (b) Dropped node: the last DFS node is a leaf; without it a split is
  // missing a child (or a single-node certificate is missing its root).
  {
    ProofCertificate T = Cert;
    T.Nodes.pop_back();
    ExpectReject(T, "a dropped leaf");
  }

  // (c) Shrunk subregion: pull in one side of the last node's region, so a
  // slice of the input space silently escapes every justification.
  {
    ProofCertificate T = Cert;
    CertNode &N = T.Nodes.back();
    for (size_t I = 0; I < N.Region.dim(); ++I) {
      if (N.Region.width(I) > 0.0) {
        Vector Lo = N.Region.lower();
        Vector Hi = N.Region.upper();
        Lo[I] += 0.25 * N.Region.width(I);
        N.Region = Box(std::move(Lo), std::move(Hi));
        ExpectReject(T, "a shrunk node region");
        break;
      }
    }
  }
  return Out;
}
