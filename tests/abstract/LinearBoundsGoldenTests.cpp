//===- LinearBoundsGoldenTests.cpp - Golden linear-bounds values ----------===//
//
// Bit-exact golden values for both ReLU relaxations of the linear-bounds
// domain (BaseDomainKind::SymbolicInterval -> Concretize, Polyhedra ->
// Triangle) and for ReluVal's smear heuristic. The soundness and tightness
// tests beside this file would all still pass after a rounding change in a
// transformer; these values, printed with %.17g before the two relaxations
// shared one element, would not.
//
// Three nets: a dense ReLU MLP whose region leaves many neurons crossing
// (both Concretize sub-cases fire: upper kept symbolic and concretized), the
// same weights under sigmoid, and the mixed ONNX fixture (conv, folded BN,
// avg-pool, residual sigmoid block, Gemm). Per net the bounds vector is
// lowerBound(o), upperBound(o) for every output o, then lowerBoundDiff(k, j)
// for every ordered pair k != j.
//
//===----------------------------------------------------------------------===//

#include "abstract/Analyzer.h"
#include "abstract/LinearBoundsElement.h"
#include "nn/Builder.h"
#include "onnx/OnnxImport.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace charon;

namespace {

const std::vector<double> ReluConcretize = {
    -2.8516544312039147, 1.7784562650024367, -2.2305815891762646,
    1.2231418782736394, -2.8658878225464872, 1.183718872527985,
    -4.0094169916086795, -4.0353733037319, -3.6513738729487089,
    -3.4104933701176718, -4.3374838355960561, -4.0481542893564768,
};

const std::vector<double> ReluTriangle = {
    -2.390609683881332, 1.2542986098154014, -1.8490763808829245,
    0.70519345199005068, -2.1672639901081938, 0.97561368523141545,
    -3.0356242568139136, -3.3662233691127472, -3.0221981181300759,
    -2.8246900661143401, -3.3403857273553448, -2.8122785630407749,
};

const std::vector<double> ReluSmear = {
    0.5833620542517558, 1.2964037140515254, 0.7568799704358512,
    0.62136570952705827,
};

const std::vector<double> SigmoidConcretize = {
    -0.43674259268543719, -0.15552818134826674, -0.257453857226145,
    -0.084213146058039243, -0.47791013717702857, -0.33409717357004265,
    -0.33901284180790325, -0.10029317256708353, -0.088409071058383443,
    0.09489155825420402, -0.32002970928045077, -0.37544874920868299,
};

const std::vector<double> SigmoidTriangle = {
    -0.43674259268543719, -0.15552818134826674, -0.257453857226145,
    -0.084213146058039243, -0.47791013717702857, -0.33409717357004265,
    -0.33901284180790325, -0.10029317256708353, -0.088409071058383443,
    0.09489155825420402, -0.32002970928045077, -0.37544874920868299,
};

const std::vector<double> SigmoidSmear = {
    0.068341145104904952, 0.055618180364298712, 0.065997459795980318,
    0.053010089825603873,
};

const std::vector<double> MixedConcretize = {
    -11.969211231797958, 1.2614422402453791, -5.5409762217721381,
    8.7252744277302021, -7.0154995753890592, 7.0356808827363908,
    -20.556452788562655, -18.095128891373719, -6.66438559105202,
    -12.559902504793367, -7.3671785924738122, -15.724019403404101,
};

const std::vector<double> MixedTriangle = {
    -10.951280575958537, 0.91040049966945213, -5.2658106749599467,
    7.012223972813806, -5.0126232498096686, 6.7649418942407449,
    -17.898278094183723, -17.450014925937193, -6.0809870611880044,
    -12.02895058764436, -5.2908777973412171, -11.955447382624628,
};

const std::vector<double> MixedSmear = {
    0.017868636497554047, 0.093298250653828976, 0.063507826817116697,
    0.067183656696892496,
};

std::vector<double> boundsOf(const AbstractElement &E) {
  std::vector<double> Out;
  for (size_t O = 0; O < E.dim(); ++O) {
    Out.push_back(E.lowerBound(O));
    Out.push_back(E.upperBound(O));
  }
  for (size_t K = 0; K < E.dim(); ++K)
    for (size_t J = 0; J < E.dim(); ++J)
      if (K != J)
        Out.push_back(E.lowerBoundDiff(K, J));
  return Out;
}

void expectSame(const std::vector<double> &Got,
                const std::vector<double> &Want, const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << What << " entry " << I;
}

void expectGolden(const Network &Net, const Box &Region,
                  const std::vector<size_t> &SmearDims,
                  const std::vector<double> &Concretize,
                  const std::vector<double> &Triangle,
                  const std::vector<double> &Smear) {
  auto S = makeElement(Region, DomainSpec{BaseDomainKind::SymbolicInterval, 1});
  auto P = makeElement(Region, DomainSpec{BaseDomainKind::Polyhedra, 1});
  ASSERT_TRUE(propagate(Net, *S));
  ASSERT_TRUE(propagate(Net, *P));
  expectSame(boundsOf(*S), Concretize, "Concretize");
  expectSame(boundsOf(*P), Triangle, "Triangle");

  LinearBoundsElement E(Region,
                        LinearBoundsElement::ReluRelaxation::Concretize);
  ASSERT_TRUE(propagate(Net, E));
  std::vector<double> GotSmear;
  for (size_t D : SmearDims)
    GotSmear.push_back(E.smear(D));
  expectSame(GotSmear, Smear, "smear");
}

Box mlpRegion() {
  return Box::linfBall(Vector{0.3, -0.2, 0.5, 0.1}, 0.2, -1.0, 1.0);
}

} // namespace

TEST(LinearBoundsGoldenTest, ReluMlpWithCrossingNeurons) {
  Rng R(71);
  Network Net = makeMlp(4, {12, 12}, 3, R);
  expectGolden(Net, mlpRegion(), {0, 1, 2, 3}, ReluConcretize, ReluTriangle,
               ReluSmear);
}

TEST(LinearBoundsGoldenTest, SigmoidMlp) {
  Rng R(71);
  Network Net = makeMlp(4, {12, 12}, 3, R, ActivationKind::Sigmoid);
  expectGolden(Net, mlpRegion(), {0, 1, 2, 3}, SigmoidConcretize,
               SigmoidTriangle, SigmoidSmear);
}

TEST(LinearBoundsGoldenTest, MixedOnnxFixture) {
  onnx::ImportResult R = onnx::importModelFile(
      std::string(CHARON_ONNX_FIXTURE_DIR) + "/mixed.onnx");
  ASSERT_TRUE(R.Net.has_value()) << R.Error;
  Vector Center(R.Net->inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = 0.1;
  expectGolden(*R.Net, Box::linfBall(Center, 0.08, -1.0, 1.0),
               {0, 17, 35, 71}, MixedConcretize, MixedTriangle, MixedSmear);
}
