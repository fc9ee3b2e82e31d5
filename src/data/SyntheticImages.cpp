//===- SyntheticImages.cpp - Synthetic image datasets ------------------------===//

#include "data/SyntheticImages.h"

#include "support/Random.h"

#include <cmath>

using namespace charon;

ImageDatasetConfig charon::mnistLikeConfig() {
  ImageDatasetConfig C;
  C.Shape = TensorShape{1, 10, 10};
  C.NumClasses = 10;
  C.SamplesPerClass = 40;
  C.PixelNoise = 0.08;
  C.Seed = 101;
  return C;
}

ImageDatasetConfig charon::cifarLikeConfig() {
  ImageDatasetConfig C;
  C.Shape = TensorShape{3, 8, 8};
  C.NumClasses = 10;
  C.SamplesPerClass = 40;
  C.PixelNoise = 0.06;
  C.Seed = 202;
  return C;
}

namespace {

/// Draws a coordinate on a side of \p Side pixels at least \p Margin pixels
/// in from both borders, or anywhere on the side when it is too short for
/// that margin. Either way it is one uniform draw, so the RNG stream, and
/// every image whose sides fit the margin, stay the same.
double drawCoordinate(Rng &R, double Margin, int Side) {
  if (Side - 1.0 < 2.0 * Margin)
    Margin = 0.0;
  return R.uniform(Margin, Side - 1.0 - Margin);
}

/// Builds the deterministic prototype image for a class: two Gaussian bumps
/// plus one oriented stroke, all placed by a class-seeded RNG, per channel.
Vector makePrototype(const ImageDatasetConfig &Config, int Label) {
  const TensorShape &S = Config.Shape;
  Rng ProtoRng(Config.Seed * 1000003ull + static_cast<uint64_t>(Label));
  Vector Img(S.size());
  for (int C = 0; C < S.Channels; ++C) {
    // Two localized bumps.
    for (int Bump = 0; Bump < 2; ++Bump) {
      double Cy = drawCoordinate(ProtoRng, 1.0, S.Height);
      double Cx = drawCoordinate(ProtoRng, 1.0, S.Width);
      double Sigma = ProtoRng.uniform(1.0, 2.2);
      double Amp = ProtoRng.uniform(0.5, 0.9);
      for (int Y = 0; Y < S.Height; ++Y) {
        for (int X = 0; X < S.Width; ++X) {
          double D2 = (Y - Cy) * (Y - Cy) + (X - Cx) * (X - Cx);
          Img[S.index(C, Y, X)] += Amp * std::exp(-D2 / (2.0 * Sigma * Sigma));
        }
      }
    }
    // One oriented stroke: a line of bright pixels.
    double Angle = ProtoRng.uniform(0.0, M_PI);
    double Oy = drawCoordinate(ProtoRng, 2.0, S.Height);
    double Ox = drawCoordinate(ProtoRng, 2.0, S.Width);
    double Dy = std::sin(Angle), Dx = std::cos(Angle);
    for (double T = -4.0; T <= 4.0; T += 0.25) {
      int Y = static_cast<int>(std::lround(Oy + T * Dy));
      int X = static_cast<int>(std::lround(Ox + T * Dx));
      if (Y >= 0 && Y < S.Height && X >= 0 && X < S.Width)
        Img[S.index(C, Y, X)] += 0.35;
    }
  }
  // Clip the prototype into [0.05, 0.95] so noisy samples stay informative.
  for (size_t I = 0, E = Img.size(); I < E; ++I)
    Img[I] = std::min(std::max(Img[I], 0.05), 0.95);
  return Img;
}

} // namespace

namespace {

/// Adds brightness jitter and pixel noise to \p Img and clips to [0, 1].
void addNoiseAndClip(Vector &Img, double PixelNoise, Rng &R) {
  double Brightness = R.gaussian(0.0, 0.03);
  for (size_t I = 0, E = Img.size(); I < E; ++I) {
    Img[I] += Brightness + R.gaussian(0.0, PixelNoise);
    Img[I] = std::min(std::max(Img[I], 0.0), 1.0);
  }
}

} // namespace

Vector charon::makeImageSample(const ImageDatasetConfig &Config, int Label,
                               Rng &R) {
  Vector Img = makePrototype(Config, Label);
  addNoiseAndClip(Img, Config.PixelNoise, R);
  return Img;
}

Vector charon::makeBoundaryImageSample(const ImageDatasetConfig &Config,
                                       int Label, int OtherLabel, double Mix,
                                       Rng &R) {
  Vector Img = makePrototype(Config, Label);
  Vector Other = makePrototype(Config, OtherLabel);
  for (size_t I = 0, E = Img.size(); I < E; ++I)
    Img[I] = (1.0 - Mix) * Img[I] + Mix * Other[I];
  addNoiseAndClip(Img, Config.PixelNoise, R);
  return Img;
}

Dataset charon::makeImageDataset(const ImageDatasetConfig &Config) {
  Dataset Data;
  Data.NumClasses = Config.NumClasses;
  Rng R(Config.Seed);
  for (int Label = 0; Label < Config.NumClasses; ++Label) {
    for (int I = 0; I < Config.SamplesPerClass; ++I) {
      Data.Inputs.push_back(makeImageSample(Config, Label, R));
      Data.Labels.push_back(Label);
    }
  }
  return Data;
}
