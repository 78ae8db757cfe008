//===- Value.h - HJ-mini runtime values --------------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values for the HJ-mini interpreter. Scalars are stored inline;
/// arrays are references to heap objects owned by the interpreter. Array
/// objects carry stable ids that the race detector uses to name memory
/// locations.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_INTERP_VALUE_H
#define TDR_INTERP_VALUE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace tdr {

class ArrayObj;

/// A runtime value: int, double, bool, array reference (possibly null), or
/// future handle (the dynamic future id; the interpreter owns the value
/// store the handle indexes).
class Value {
public:
  enum class Kind : uint8_t { Int, Double, Bool, Array, Future };

  Value() : K(Kind::Int) { Payload.I = 0; }

  static Value makeInt(int64_t V) {
    Value R;
    R.K = Kind::Int;
    R.Payload.I = V;
    return R;
  }
  static Value makeDouble(double V) {
    Value R;
    R.K = Kind::Double;
    R.Payload.D = V;
    return R;
  }
  static Value makeBool(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.Payload.B = V;
    return R;
  }
  static Value makeArray(ArrayObj *A) {
    Value R;
    R.K = Kind::Array;
    R.Payload.A = A;
    return R;
  }
  static Value makeFuture(uint32_t Fid) {
    Value R;
    R.K = Kind::Future;
    R.Payload.F = Fid;
    return R;
  }

  Kind kind() const { return K; }
  bool isInt() const { return K == Kind::Int; }
  bool isDouble() const { return K == Kind::Double; }
  bool isBool() const { return K == Kind::Bool; }
  bool isArray() const { return K == Kind::Array; }
  bool isFuture() const { return K == Kind::Future; }

  int64_t asInt() const {
    assert(isInt());
    return Payload.I;
  }
  double asDouble() const {
    assert(isDouble());
    return Payload.D;
  }
  bool asBool() const {
    assert(isBool());
    return Payload.B;
  }
  ArrayObj *asArray() const {
    assert(isArray());
    return Payload.A;
  }
  uint32_t asFuture() const {
    assert(isFuture());
    return Payload.F;
  }

  /// Renders the value the way the print builtin does.
  std::string str() const;

private:
  Kind K;
  union {
    int64_t I;
    double D;
    bool B;
    ArrayObj *A;
    uint32_t F;
  } Payload;
};

/// A heap-allocated array. Elements are Values (nested arrays give 2-D).
class ArrayObj {
public:
  ArrayObj(uint32_t Id, size_t N, Value Fill) : Id(Id), Elems(N, Fill) {}

  uint32_t id() const { return Id; }
  size_t size() const { return Elems.size(); }
  Value &elem(size_t I) {
    assert(I < Elems.size());
    return Elems[I];
  }
  const Value &elem(size_t I) const {
    assert(I < Elems.size());
    return Elems[I];
  }

private:
  uint32_t Id;
  std::vector<Value> Elems;
};

/// Names one race-checked shared memory location: a global variable slot or
/// an array element.
struct MemLoc {
  enum class Kind : uint8_t { Global, Elem };

  Kind K = Kind::Global;
  uint32_t Id = 0;    ///< global slot, or array id
  int64_t Index = 0;  ///< element index (Elem only)

  static MemLoc global(uint32_t Slot) { return MemLoc{Kind::Global, Slot, 0}; }
  static MemLoc elem(uint32_t ArrayId, int64_t Index) {
    return MemLoc{Kind::Elem, ArrayId, Index};
  }

  friend bool operator==(const MemLoc &A, const MemLoc &B) {
    return A.K == B.K && A.Id == B.Id && A.Index == B.Index;
  }

  /// Renders as "global#3" or "array#7[42]" for reports.
  std::string str() const;
};

struct MemLocHash {
  size_t operator()(const MemLoc &L) const {
    uint64_t H = static_cast<uint64_t>(L.K) * 0x9e3779b97f4a7c15ull;
    H ^= (static_cast<uint64_t>(L.Id) + 0x9e3779b97f4a7c15ull + (H << 6));
    H ^= (static_cast<uint64_t>(L.Index) * 0xbf58476d1ce4e5b9ull) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

} // namespace tdr

#endif // TDR_INTERP_VALUE_H
