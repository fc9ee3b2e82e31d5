//===- Conv2D.h - 2-D convolution layer -------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 2-D convolution with zero padding. Tensors are flattened channel-major:
/// index(c, y, x) = c*H*W + y*W + x. Sec. 2.1 of the paper treats
/// convolutional layers as affine transformations for analysis purposes.
///
/// The hot paths run the layer's row-batch convolution kernel on the kernel
/// tensor: forwardBatch, backwardBatch, the input gradient of backward (PGD
/// and the policy's gradients), and the zonotope's generator step
/// (convolveRowsInto, reached through AffineView::Conv). Every value they
/// produce equals the dense lowering's under ==, which admits only a
/// different sign of zero. \c affineForm() still returns the lowered dense
/// matrix (cached between weight updates) for everything else that reads
/// it: network fingerprints, the Interval and LinearBounds transformers,
/// Reluplex, residual plans, the zonotope's center and sparse tail, and the
/// tests, which use it as the oracle.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_CONV2D_H
#define CHARON_NN_CONV2D_H

#include "nn/Layer.h"

#include <cstdint>

namespace charon {
class Rng;

/// Shape of a conv/pool input or output tensor.
struct TensorShape {
  int Channels;
  int Height;
  int Width;

  int size() const { return Channels * Height * Width; }
  int index(int C, int Y, int X) const { return (C * Height + Y) * Width + X; }
};

/// Most entries a conv or pool layer may derive from its shape: its dense
/// lowering (conv, avgpool) holds outputs x inputs entries, its max-pool
/// window table outputs x window entries, and a conv's kernel tensor and
/// the padded planes its row-batch kernel convolves are bounded too. 2^25
/// entries is 256 MiB as doubles. Every network this repository trains,
/// ships or tests stays far below it: the largest, mnist_conv's 8->8 10x10
/// convolution, lowers to 640,000 entries.
constexpr uint64_t MaxShapeTableEntries = uint64_t(1) << 25;

/// The windowed layers whose shapes windowShapeFits checks.
enum class WindowKind { Conv, AvgPool, MaxPool };

/// True when a layer of \p Kind over \p In, with \p OutChannels outputs
/// (the input channels for pools), a \p KH x \p KW window, \p Stride and
/// \p Pad (0 for pools) can be built: every dimension positive (the pad
/// non-negative), the window inside the padded input, input and output flat
/// sizes within int, and the derived table within MaxShapeTableEntries.
/// The network loader and the ONNX importer call it before they construct
/// such a layer, so a hostile shape is refused instead of overflowing or
/// exhausting memory.
bool windowShapeFits(WindowKind Kind, const TensorShape &In, int OutChannels,
                     int KH, int KW, int Stride, int Pad);

/// 2-D convolution layer with stride and zero padding.
class Conv2DLayer : public Layer {
public:
  /// Creates a zero-initialized convolution from \p In (shape) with
  /// \p OutChannels filters of size \p KernelH x \p KernelW.
  Conv2DLayer(TensorShape In, int OutChannels, int KernelH, int KernelW,
              int Stride, int Pad);

  /// He-initializes the kernels.
  void initHe(Rng &R);

  LayerKind kind() const override { return LayerKind::Conv2D; }
  size_t inputSize() const override { return InShape.size(); }
  size_t outputSize() const override { return OutShape.size(); }

  Vector forward(const Vector &Input) const override;
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override;
  Matrix forwardBatch(const Matrix &X) const override;
  Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const override;
  void applyGradients(double LearningRate, double BatchSize) override;
  void zeroGradients() override;

  std::optional<AffineView> affineForm() const override;

  std::unique_ptr<Layer> clone() const override;

  /// The convolution without its bias on many rows: rows [0, X.rows()) of
  /// \p Out become W * X.row(r), W the lowering. Each output starts at 0
  /// and adds its taps in ascending input index with the active SIMD
  /// level's multiply-add, the chain kernels::matMulTransposed runs, so
  /// the rows equal those of matMulTransposed(X, *affineForm()->W). \p Out
  /// needs outputSize() columns and at least X.rows() rows. This is the
  /// zonotope's dense generator step.
  void convolveRowsInto(const Matrix &X, Matrix &Out) const;

  const TensorShape &inputShape() const { return InShape; }
  const TensorShape &outputShape() const { return OutShape; }
  int kernelHeight() const { return KH; }
  int kernelWidth() const { return KW; }
  int stride() const { return S; }
  int padding() const { return P; }

  /// Kernel weight for (output channel, input channel, ky, kx).
  double kernelAt(int Oc, int Ic, int Ky, int Kx) const {
    return Kernels[kernelIndex(Oc, Ic, Ky, Kx)];
  }
  double &kernelAt(int Oc, int Ic, int Ky, int Kx) {
    Lowered.reset();
    return Kernels[kernelIndex(Oc, Ic, Ky, Kx)];
  }

  const Vector &bias() const { return B; }
  Vector &bias() {
    Lowered.reset();
    return B;
  }

private:
  int kernelIndex(int Oc, int Ic, int Ky, int Kx) const {
    return ((Oc * InShape.Channels + Ic) * KH + Ky) * KW + Kx;
  }

  /// Input gradients of \p Rows rows: row r of \p GradIn becomes row r of
  /// \p GradOut times W, W the lowering, each input accumulating over
  /// outputs in ascending index through the dispatched saxpy arithmetic,
  /// as matMul(GradOut, W) does.
  void inputGradientInto(const double *GradOut, size_t Rows,
                         double *GradIn) const;

  void buildLowered() const;

  TensorShape InShape;
  TensorShape OutShape;
  int KH, KW, S, P;
  std::vector<double> Kernels;
  Vector B;
  std::vector<double> GradKernels;
  Vector GradB;

  /// Cached dense lowering y = W x + b of the convolution; rebuilt lazily
  /// after any weight update.
  struct LoweredForm {
    Matrix W;
    Vector Bias;
  };
  mutable std::unique_ptr<LoweredForm> Lowered;
};

} // namespace charon

#endif // CHARON_NN_CONV2D_H
