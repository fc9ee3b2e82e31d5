//===- ConvGeometries.h - Shared convolution shapes for tests ----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one geometry table the structured-convolution identity tests sweep:
/// every convolution the benchmark networks run, plus the shapes where a
/// padded-plane index goes wrong first (strides, a non-square kernel, 1x1
/// kernels, a kernel as large as the padded input, pads wider than the
/// kernel reach).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_TESTS_CONVGEOMETRIES_H
#define CHARON_TESTS_CONVGEOMETRIES_H

#include "nn/Conv2D.h"
#include "support/Random.h"

#include <memory>

namespace charon {
namespace testing_nets {

struct ConvGeometry {
  const char *Name;
  TensorShape In;
  int OutChannels, KernelH, KernelW, Stride, Pad;
};

inline constexpr ConvGeometry ConvGeometries[] = {
    // mnist_conv's three convolutions (makeLeNet on a 1x10x10 input).
    {"mnist_conv_1to8", {1, 10, 10}, 8, 3, 3, 1, 1},
    {"mnist_conv_8to8", {8, 10, 10}, 8, 3, 3, 1, 1},
    {"mnist_conv_8to16", {8, 5, 5}, 16, 3, 3, 1, 1},
    // The mixed.onnx fixture's convolution.
    {"mixed_onnx_2to3", {2, 6, 6}, 3, 3, 3, 1, 0},
    {"stride2", {2, 7, 6}, 3, 3, 3, 2, 1},
    {"stride3", {2, 8, 7}, 2, 3, 2, 3, 1},
    {"kh_ne_kw", {2, 5, 6}, 3, 2, 4, 1, 1},
    {"one_by_one", {3, 4, 5}, 5, 1, 1, 1, 0},
    {"one_by_one_pad1", {2, 3, 3}, 2, 1, 1, 1, 1},
    {"kernel_fills_padded_input", {2, 4, 3}, 3, 6, 5, 1, 1},
    {"pad2", {2, 5, 5}, 3, 3, 3, 1, 2},
};

/// A He-initialized convolution of \p G with a random nonzero bias.
inline std::unique_ptr<Conv2DLayer> makeConv(const ConvGeometry &G, Rng &R) {
  auto Conv = std::make_unique<Conv2DLayer>(G.In, G.OutChannels, G.KernelH,
                                            G.KernelW, G.Stride, G.Pad);
  Conv->initHe(R);
  for (size_t Oc = 0; Oc < Conv->bias().size(); ++Oc)
    Conv->bias()[Oc] = R.uniform(-0.5, 0.5);
  return Conv;
}

} // namespace testing_nets
} // namespace charon

#endif // CHARON_TESTS_CONVGEOMETRIES_H
