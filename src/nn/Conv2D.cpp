//===- Conv2D.cpp - 2-D convolution layer ----------------------------------===//

#include "nn/Conv2D.h"

#include "linalg/Kernels.h"
#include "support/Random.h"

#include <algorithm>
#include <climits>
#include <cmath>

using namespace charon;

namespace {

/// A * B, or UINT64_MAX when the product overflows.
uint64_t mulSat(uint64_t A, uint64_t B) {
  return A != 0 && B > UINT64_MAX / A ? UINT64_MAX : A * B;
}

/// One row-batch correlation: the loop nest behind every structured conv
/// path. Each row of the source holds SrcC planes of SrcH x SrcW. Sample
/// (y, x) of plane c is copied to position (OffY + y * Dil, OffX + x * Dil)
/// of a zero-filled PadH x PadW plane; samples landing outside are never
/// read and are dropped. Output (oc, oy, ox) starts at its init value, then
/// takes, for the taps (c, ky, kx) in ascending order, the weight
/// Weight(oc, c, ky, kx) times padded plane c at
/// (oy * Stride + ky, ox * Stride + kx).
struct Correlation {
  int SrcC, SrcH, SrcW;
  int Dil, OffY, OffX;
  int PadH, PadW;
  int OutC, OutH, OutW;
  int KH, KW, Stride;
};

/// Runs \p C on \p Rows rows of \p X (SrcC * SrcH * SrcW apart) into the
/// first \p Rows rows of \p Out (OutC * OutH * OutW apart), with \p Init
/// (null for zeros) per output channel and \p Arith per tap.
///
/// The microkernel works on 4-lane vectors. A vector holds W rows of
/// G = 4 / W neighbouring output positions: W = 4 in general, but a batch
/// of 2 rows (PGD) or 1 (per-point backward) fills the vector with
/// positions rather than empty rows. That needs neighbouring outputs to
/// read neighbouring inputs, so only stride 1 narrows W. The padded planes
/// are stored in chunks of W rows, element (c, y, x) of row W q + l at
/// (((q * SrcC + c) * PadH + y) * PadW + x) * W + l, so one tap of one
/// vector is four contiguous doubles. Lanes past the last row or the last
/// output column are computed from zeros or neighbours and never written
/// out; each lane is its own chain, so they cannot disturb the others. A
/// work item is one vector; items run chunk by chunk, row by row, and the
/// microkernel takes eight vector-channels at a time (two vectors against
/// four output channels, or four against two), so its loops stay long for
/// 1 row and for 160 alike.
template <typename WeightFn>
void correlate(const double *X, size_t Rows, const Correlation &C,
               WeightFn Weight, const double *Init, kernels::TapArith Arith,
               double *Out) {
  if (Rows == 0)
    return;
  const size_t W = C.Stride != 1 || Rows > 2 ? 4 : Rows;
  const size_t G = 4 / W;
  const size_t Chunks = (Rows + W - 1) / W;
  const size_t Plane = size_t(C.PadH) * C.PadW * W;
  const size_t ChunkSize = size_t(C.SrcC) * Plane;
  const size_t Taps = size_t(C.SrcC) * C.KH * C.KW;
  // The microkernel runs Chans output channels against Vecs vectors; one or
  // two channels take the 2 x 4 shape so no block computes empty channels.
  const size_t OutC = static_cast<size_t>(C.OutC);
  const size_t Chans = OutC <= 2 ? 2 : 4, Vecs = 8 / Chans;
  const size_t Blocks = (OutC + Chans - 1) / Chans;
  // One zero-filled buffer: the padded planes, then the weights and inits
  // in blocks of Chans output channels (zero past OutC). A vector of the
  // last group in a row reads up to G - 1 positions past the row, into the
  // next one; 4 slack doubles keep the last row in bounds.
  const size_t PaddedSize = Chunks * ChunkSize + 4;
  std::vector<double> Scratch(PaddedSize + Blocks * (Taps + 1) * Chans, 0.0);
  double *Padded = Scratch.data();
  double *Packed = Padded + PaddedSize;
  double *Inits = Packed + Blocks * Taps * Chans;
  for (size_t R = 0; R < Rows; ++R) {
    const double *Src = X + R * C.SrcC * C.SrcH * C.SrcW;
    double *Dst = Padded + (R / W) * ChunkSize + R % W;
    for (int Ch = 0; Ch < C.SrcC; ++Ch) {
      for (int Y = 0; Y < C.SrcH; ++Y) {
        int Py = C.OffY + Y * C.Dil;
        if (Py < 0 || Py >= C.PadH)
          continue;
        const double *SrcRow = Src + (size_t(Ch) * C.SrcH + Y) * C.SrcW;
        double *DstRow = Dst + Ch * Plane + size_t(Py) * C.PadW * W;
        for (int Xx = 0; Xx < C.SrcW; ++Xx) {
          int Px = C.OffX + Xx * C.Dil;
          if (Px >= 0 && Px < C.PadW)
            DstRow[size_t(Px) * W] = SrcRow[Xx];
        }
      }
    }
  }

  std::vector<size_t> Offsets;
  Offsets.reserve(Taps);
  for (int Ch = 0; Ch < C.SrcC; ++Ch)
    for (int Ky = 0; Ky < C.KH; ++Ky)
      for (int Kx = 0; Kx < C.KW; ++Kx)
        Offsets.push_back(Ch * Plane + (size_t(Ky) * C.PadW + Kx) * W);
  for (int Oc = 0; Oc < C.OutC; ++Oc) {
    double *Dst = Packed + (Oc / Chans) * Taps * Chans + Oc % Chans;
    for (int Ch = 0; Ch < C.SrcC; ++Ch)
      for (int Ky = 0; Ky < C.KH; ++Ky)
        for (int Kx = 0; Kx < C.KW; ++Kx, Dst += Chans)
          *Dst = Weight(Oc, Ch, Ky, Kx);
    if (Init)
      Inits[Oc] = Init[Oc];
  }

  // A cursor walks the vectors (chunk, output row, group of G columns), so
  // no item pays a division.
  struct Cursor {
    size_t Q = 0, Oy = 0, Gx = 0;
  };
  const size_t Groups = (size_t(C.OutW) + G - 1) / G;
  const size_t PerChunk = size_t(C.OutH) * Groups;
  const size_t Items = Chunks * PerChunk;
  auto Advance = [&](Cursor &Cu) {
    if (++Cu.Gx == Groups) {
      Cu.Gx = 0;
      if (++Cu.Oy == size_t(C.OutH)) {
        Cu.Oy = 0;
        ++Cu.Q;
      }
    }
  };
  // Lane L of a vector is LaneX[L] columns right of and LaneRow[L] rows
  // below the vector's first output, LaneOff[L] entries past it in Out.
  const size_t OutPlane = size_t(C.OutH) * C.OutW;
  const size_t Cols = C.OutC * OutPlane;
  size_t LaneX[4], LaneRow[4], LaneOff[4];
  for (size_t L = 0; L < 4; ++L) {
    LaneX[L] = L / W;
    LaneRow[L] = L % W;
    LaneOff[L] = LaneRow[L] * Cols + LaneX[L];
  }
  kernels::parallelFor(
      (Items + Vecs - 1) / Vecs, Blocks * Taps * 64,
      [&](size_t Begin, size_t End) {
        double Block[32];
        const size_t First = Begin * Vecs;
        Cursor Next{First / PerChunk, First % PerChunk / Groups,
                    First % Groups};
        for (size_t Group = Begin; Group < End; ++Group) {
          // A short last group repeats its last item in the spare slots,
          // which are never written out.
          const size_t Live = std::min(Vecs, Items - Group * Vecs);
          const double *X[4];
          double *Dst[4];
          bool Keep[4][4];
          Cursor Cu;
          for (size_t H = 0; H < Vecs; ++H) {
            if (H < Live) {
              Cu = Next;
              Advance(Next);
            }
            X[H] = Padded + Cu.Q * ChunkSize +
                   (Cu.Oy * C.Stride * C.PadW + Cu.Gx * G * C.Stride) * W;
            Dst[H] = Out + Cu.Q * W * Cols + Cu.Oy * C.OutW + Cu.Gx * G;
            for (size_t L = 0; L < 4; ++L)
              Keep[H][L] = H < Live &&
                           Cu.Gx * G + LaneX[L] < size_t(C.OutW) &&
                           Cu.Q * W + LaneRow[L] < Rows;
          }
          for (size_t Blk = 0; Blk < Blocks; ++Blk) {
            kernels::convTapBlock(X, Offsets.data(),
                                  Packed + Blk * Taps * Chans, Taps, Chans,
                                  Inits + Blk * Chans, Arith, Block);
            for (size_t J = 0; J < Chans && Blk * Chans + J < OutC; ++J)
              for (size_t H = 0; H < Live; ++H)
                for (size_t L = 0; L < 4; ++L)
                  if (Keep[H][L])
                    Dst[H][(Blk * Chans + J) * OutPlane + LaneOff[L]] =
                        Block[(J * Vecs + H) * 4 + L];
          }
        }
      });
}

/// The convolution \p L as a correlation over its zero-padded input.
Correlation forwardCorrelation(const Conv2DLayer &L) {
  const TensorShape &In = L.inputShape(), &Out = L.outputShape();
  const int P = L.padding();
  return {In.Channels,      In.Height,        In.Width,
          /*Dil=*/1,        P,                P,
          In.Height + 2 * P, In.Width + 2 * P,
          Out.Channels,     Out.Height,       Out.Width,
          L.kernelHeight(), L.kernelWidth(),  L.stride()};
}

/// The kernel tensor of a convolution as correlate()'s weight function.
struct KernelAt {
  const Conv2DLayer &L;
  double operator()(int Oc, int Ic, int Ky, int Kx) const {
    return L.kernelAt(Oc, Ic, Ky, Kx);
  }
};

} // namespace

bool charon::windowShapeFits(WindowKind Kind, const TensorShape &In,
                             int OutChannels, int KH, int KW, int Stride,
                             int Pad) {
  if (In.Channels <= 0 || In.Height <= 0 || In.Width <= 0 ||
      OutChannels <= 0 || KH <= 0 || KW <= 0 || Stride <= 0 || Pad < 0)
    return false;
  const uint64_t PadH = uint64_t(In.Height) + 2 * uint64_t(Pad);
  const uint64_t PadW = uint64_t(In.Width) + 2 * uint64_t(Pad);
  if (PadH < uint64_t(KH) || PadW < uint64_t(KW))
    return false;
  const uint64_t InFlat =
      mulSat(mulSat(uint64_t(In.Channels), uint64_t(In.Height)), In.Width);
  const uint64_t OutFlat =
      mulSat(mulSat(uint64_t(OutChannels), (PadH - KH) / Stride + 1),
             (PadW - KW) / Stride + 1);
  if (InFlat > uint64_t(INT_MAX) || OutFlat > uint64_t(INT_MAX))
    return false;
  if (Kind == WindowKind::MaxPool)
    return mulSat(OutFlat, mulSat(uint64_t(KH), uint64_t(KW))) <=
           MaxShapeTableEntries;
  uint64_t Table = mulSat(OutFlat, InFlat);
  if (Kind == WindowKind::Conv) {
    // The kernel tensor, and the padded planes the structured kernel
    // convolves per 4-row chunk: the input for the forward pass, the
    // output gradient for the input gradient.
    const uint64_t Taps = mulSat(uint64_t(KH), uint64_t(KW));
    Table = std::max(
        {Table, mulSat(mulSat(uint64_t(OutChannels), In.Channels), Taps),
         mulSat(mulSat(uint64_t(In.Channels), PadH), PadW),
         mulSat(mulSat(uint64_t(OutChannels), uint64_t(In.Height) + KH - 1),
                uint64_t(In.Width) + KW - 1)});
  }
  return Table <= MaxShapeTableEntries;
}

static TensorShape convOutputShape(const TensorShape &In, int OutChannels,
                                   int KH, int KW, int S, int P) {
  TensorShape Out;
  Out.Channels = OutChannels;
  Out.Height = (In.Height + 2 * P - KH) / S + 1;
  Out.Width = (In.Width + 2 * P - KW) / S + 1;
  assert(Out.Height > 0 && Out.Width > 0 && "convolution output is empty");
  return Out;
}

Conv2DLayer::Conv2DLayer(TensorShape In, int OutChannels, int KernelH,
                         int KernelW, int Stride, int Pad)
    : InShape(In),
      OutShape(convOutputShape(In, OutChannels, KernelH, KernelW, Stride, Pad)),
      KH(KernelH), KW(KernelW), S(Stride), P(Pad),
      Kernels(static_cast<size_t>(OutChannels) * In.Channels * KernelH *
              KernelW),
      B(static_cast<size_t>(OutChannels)),
      GradKernels(Kernels.size()), GradB(B.size()) {}

void Conv2DLayer::initHe(Rng &R) {
  double FanIn = static_cast<double>(InShape.Channels) * KH * KW;
  double Scale = std::sqrt(2.0 / FanIn);
  for (double &K : Kernels)
    K = R.gaussian(0.0, Scale);
  B.fill(0.0);
  Lowered.reset();
}

Vector Conv2DLayer::forward(const Vector &Input) const {
  assert(Input.size() == static_cast<size_t>(InShape.size()) &&
         "conv input size mismatch");
  // The naive tap loop: the reference forwardBatch is tested against.
  Vector Out(OutShape.size());
  for (int Oc = 0; Oc < OutShape.Channels; ++Oc) {
    for (int Oy = 0; Oy < OutShape.Height; ++Oy) {
      for (int Ox = 0; Ox < OutShape.Width; ++Ox) {
        double Sum = B[Oc];
        for (int Ic = 0; Ic < InShape.Channels; ++Ic) {
          for (int Ky = 0; Ky < KH; ++Ky) {
            int Iy = Oy * S + Ky - P;
            if (Iy < 0 || Iy >= InShape.Height)
              continue;
            for (int Kx = 0; Kx < KW; ++Kx) {
              int Ix = Ox * S + Kx - P;
              if (Ix < 0 || Ix >= InShape.Width)
                continue;
              Sum += kernelAt(Oc, Ic, Ky, Kx) * Input[InShape.index(Ic, Iy, Ix)];
            }
          }
        }
        Out[OutShape.index(Oc, Oy, Ox)] = Sum;
      }
    }
  }
  return Out;
}

Vector Conv2DLayer::backward(const Vector &Input, const Vector &GradOut,
                             bool AccumulateParams) {
  assert(GradOut.size() == static_cast<size_t>(OutShape.size()) &&
         "conv gradient size mismatch");
  if (AccumulateParams) {
    // Parameter gradients keep the tap loop: they index the kernel tensor,
    // not the input row.
    for (int Oc = 0; Oc < OutShape.Channels; ++Oc) {
      for (int Oy = 0; Oy < OutShape.Height; ++Oy) {
        for (int Ox = 0; Ox < OutShape.Width; ++Ox) {
          double G = GradOut[OutShape.index(Oc, Oy, Ox)];
          if (G == 0.0)
            continue;
          GradB[Oc] += G;
          for (int Ic = 0; Ic < InShape.Channels; ++Ic) {
            for (int Ky = 0; Ky < KH; ++Ky) {
              int Iy = Oy * S + Ky - P;
              if (Iy < 0 || Iy >= InShape.Height)
                continue;
              for (int Kx = 0; Kx < KW; ++Kx) {
                int Ix = Ox * S + Kx - P;
                if (Ix < 0 || Ix >= InShape.Width)
                  continue;
                int In = InShape.index(Ic, Iy, Ix);
                GradKernels[kernelIndex(Oc, Ic, Ky, Kx)] += G * Input[In];
              }
            }
          }
        }
      }
    }
  }
  Vector GradIn(InShape.size());
  inputGradientInto(GradOut.data(), 1, GradIn.data());
  return GradIn;
}

Matrix Conv2DLayer::forwardBatch(const Matrix &X) const {
  assert(X.cols() == static_cast<size_t>(InShape.size()) &&
         "conv batched input size mismatch");
  // Bias first, then the taps in forward()'s order with its multiply-then-
  // add arithmetic. A padded position adds w * 0, which can change only
  // the sign of a zero.
  Matrix Out = Matrix::uninit(X.rows(), OutShape.size());
  correlate(X.data(), X.rows(), forwardCorrelation(*this), KernelAt{*this},
            B.data(), kernels::TapArith::Separate, Out.data());
  return Out;
}

void Conv2DLayer::convolveRowsInto(const Matrix &X, Matrix &Out) const {
  assert(X.cols() == static_cast<size_t>(InShape.size()) &&
         Out.cols() == static_cast<size_t>(OutShape.size()) &&
         Out.rows() >= X.rows() && "conv row-batch shape mismatch");
  correlate(X.data(), X.rows(), forwardCorrelation(*this), KernelAt{*this},
            nullptr, kernels::TapArith::Dispatched, Out.data());
}

void Conv2DLayer::inputGradientInto(const double *GradOut, size_t Rows,
                                    double *GradIn) const {
  // The transposed convolution as a stride-1 correlation over the output
  // gradient, spread S apart and shifted so input (iy, ix) reads it at
  // (iy + ky', ix + kx'), with the kernel flipped and its channel axes
  // swapped. Input ic then visits its terms in ascending (oc, ky', kx'),
  // i.e. descending (ky, kx) within each oc, which is ascending output
  // index (oc, oy, ox): matMul(GradOut, W)'s order. Zero gradients and
  // spread positions add w * 0, which can change only the sign of a zero.
  const Correlation C{OutShape.Channels, OutShape.Height, OutShape.Width,
                      S, KH - 1 - P, KW - 1 - P,
                      InShape.Height + KH - 1, InShape.Width + KW - 1,
                      InShape.Channels, InShape.Height, InShape.Width,
                      KH, KW, 1};
  auto Flipped = [this](int Ic, int Oc, int Ky, int Kx) {
    return kernelAt(Oc, Ic, KH - 1 - Ky, KW - 1 - Kx);
  };
  correlate(GradOut, Rows, C, Flipped, nullptr, kernels::TapArith::Dispatched,
            GradIn);
}

Matrix Conv2DLayer::backwardBatch(const Matrix &X, const Matrix &GradOut) const {
  assert(GradOut.cols() == static_cast<size_t>(OutShape.size()) &&
         X.rows() == GradOut.rows() && "conv batched gradient size mismatch");
  (void)X;
  Matrix GradIn = Matrix::uninit(GradOut.rows(), InShape.size());
  inputGradientInto(GradOut.data(), GradOut.rows(), GradIn.data());
  return GradIn;
}

void Conv2DLayer::applyGradients(double LearningRate, double BatchSize) {
  double Step = LearningRate / BatchSize;
  for (size_t I = 0, E = Kernels.size(); I < E; ++I)
    Kernels[I] -= Step * GradKernels[I];
  for (size_t I = 0, E = B.size(); I < E; ++I)
    B[I] -= Step * GradB[I];
  Lowered.reset();
}

void Conv2DLayer::zeroGradients() {
  std::fill(GradKernels.begin(), GradKernels.end(), 0.0);
  GradB.fill(0.0);
}

void Conv2DLayer::buildLowered() const {
  auto Form = std::make_unique<LoweredForm>();
  Form->W = Matrix(OutShape.size(), InShape.size());
  Form->Bias = Vector(OutShape.size());
  // Each output coordinate owns exactly one W row, so the scatter shards
  // cleanly across rows. Row index decomposes as ((Oc*H)+Oy)*W+Ox.
  size_t RowCost = static_cast<size_t>(InShape.Channels) * KH * KW;
  kernels::parallelFor(
      static_cast<size_t>(OutShape.size()), RowCost,
      [&](size_t Begin, size_t End) {
        for (size_t Row = Begin; Row < End; ++Row) {
          int Ox = static_cast<int>(Row) % OutShape.Width;
          int Oy = (static_cast<int>(Row) / OutShape.Width) % OutShape.Height;
          int Oc = static_cast<int>(Row) / (OutShape.Width * OutShape.Height);
          Form->Bias[Row] = B[Oc];
          for (int Ic = 0; Ic < InShape.Channels; ++Ic) {
            for (int Ky = 0; Ky < KH; ++Ky) {
              int Iy = Oy * S + Ky - P;
              if (Iy < 0 || Iy >= InShape.Height)
                continue;
              for (int Kx = 0; Kx < KW; ++Kx) {
                int Ix = Ox * S + Kx - P;
                if (Ix < 0 || Ix >= InShape.Width)
                  continue;
                Form->W(Row, InShape.index(Ic, Iy, Ix)) =
                    Kernels[kernelIndex(Oc, Ic, Ky, Kx)];
              }
            }
          }
        }
      });
  Lowered = std::move(Form);
}

std::optional<AffineView> Conv2DLayer::affineForm() const {
  if (!Lowered)
    buildLowered();
  return AffineView{&Lowered->W, &Lowered->Bias, this};
}

std::unique_ptr<Layer> Conv2DLayer::clone() const {
  auto Copy =
      std::make_unique<Conv2DLayer>(InShape, OutShape.Channels, KH, KW, S, P);
  Copy->Kernels = Kernels;
  Copy->B = B;
  return Copy;
}
