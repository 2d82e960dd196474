#include "storage/serializer.h"

#include <cstring>
#include <utility>

#include "storage/crc32.h"

namespace tpcp {
namespace {

constexpr uint32_t kMagic = 0x32504350;  // "2PCP"
constexpr uint8_t kKindMatrix = 1;
constexpr uint8_t kKindTensor = 2;
constexpr uint8_t kKindSparseCoo = 3;
constexpr uint8_t kKindSparseCsf = 4;

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

// LEB128 unsigned varint.
void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^
         -static_cast<int64_t>(value & 1);
}

// Index array as zigzag varints of successive deltas (first vs 0): small
// within-fiber jumps cost one byte regardless of the coordinate magnitude.
void AppendDeltaArray(std::string* out, const std::vector<int64_t>& values) {
  int64_t prev = 0;
  for (int64_t v : values) {
    AppendVarint(out, ZigZagEncode(v - prev));
    prev = v;
  }
}

// Monotone offset array as unsigned varints of successive deltas.
void AppendMonotoneArray(std::string* out,
                         const std::vector<int64_t>& values) {
  int64_t prev = 0;
  for (int64_t v : values) {
    AppendVarint(out, static_cast<uint64_t>(v - prev));
    prev = v;
  }
}

// Cursor-based reader returning false on underflow.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDoubles(double* out, size_t count) {
    if (count > remaining() / sizeof(double)) return false;
    // memcpy from or to a null pointer is undefined even for zero bytes,
    // and an empty vector's data() may be null.
    if (count == 0) return true;
    const size_t n = count * sizeof(double);
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return false;
  }

  /// Bytes left after the cursor — the bound every header count is
  /// checked against before it sizes an allocation.
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

std::string SerializeDims(uint8_t kind, const std::vector<int64_t>& dims,
                          const double* payload, int64_t count) {
  std::string out;
  out.reserve(17 + dims.size() * 8 + static_cast<size_t>(count) * 8 + 4);
  AppendPod(&out, kMagic);
  AppendPod(&out, kind);
  AppendPod(&out, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) AppendPod(&out, d);
  AppendRaw(&out, payload, static_cast<size_t>(count) * sizeof(double));
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

// Validates crc + magic + header and reports the record kind.
Status CheckEnvelopeAny(const std::string& bytes, Reader* reader,
                        uint8_t* kind, uint32_t* ndims) {
  if (bytes.size() < 13) return Status::Corruption("record too short");
  const uint32_t stored_crc =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored_crc != file_crc) {
    return Status::Corruption("checksum mismatch");
  }
  uint32_t magic = 0;
  if (!reader->Read(&magic) || !reader->Read(kind) || !reader->Read(ndims)) {
    return Status::Corruption("truncated header");
  }
  if (magic != kMagic) return Status::Corruption("bad magic");
  if (*ndims == 0 || *ndims > 64) {
    return Status::Corruption("implausible ndims");
  }
  return Status::OK();
}

Status CheckEnvelope(const std::string& bytes, uint8_t expected_kind,
                     Reader* reader, uint32_t* ndims) {
  uint8_t kind = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelopeAny(bytes, reader, &kind, ndims));
  if (kind != expected_kind) return Status::Corruption("wrong record kind");
  return Status::OK();
}

// Shared header tail: the dims of a tensor record, which must make a
// valid Shape (positive, element count within int64).
Status ReadShapeDims(Reader* reader, uint32_t ndims,
                     std::vector<int64_t>* dims) {
  dims->resize(ndims);
  for (uint32_t i = 0; i < ndims; ++i) {
    if (!reader->Read(&(*dims)[i])) {
      return Status::Corruption("bad tensor dims");
    }
  }
  if (const auto elements = CheckedElementCount(*dims); !elements.ok()) {
    return Status::Corruption("bad tensor dims: " +
                              elements.status().message());
  }
  return Status::OK();
}

// Payload decoders: each runs after the envelope check, with `reader`
// positioned on the dims. Every count is bounded by the bytes left before
// it sizes a vector, so a corrupt header is a Status, never an
// allocation failure.

Result<DenseTensor> DecodeTensor(Reader* reader, uint32_t ndims) {
  std::vector<int64_t> dims;
  TPCP_RETURN_IF_ERROR(ReadShapeDims(reader, ndims, &dims));
  const uint64_t limit = reader->remaining() / sizeof(double);
  uint64_t count = 1;
  for (int64_t d : dims) {
    if (static_cast<uint64_t>(d) > limit / count) {
      return Status::Corruption("truncated tensor payload");
    }
    count *= static_cast<uint64_t>(d);
  }
  DenseTensor t{Shape(dims)};
  if (!reader->ReadDoubles(t.data(), static_cast<size_t>(count))) {
    return Status::Corruption("truncated tensor payload");
  }
  return t;
}

Result<SparseTensor> DecodeCoo(Reader* reader, uint32_t ndims) {
  std::vector<int64_t> dims;
  TPCP_RETURN_IF_ERROR(ReadShapeDims(reader, ndims, &dims));
  int64_t nnz = 0;
  if (!reader->Read(&nnz) || nnz < 0 ||
      static_cast<uint64_t>(nnz) >
          reader->remaining() / ((ndims + 1) * sizeof(int64_t))) {
    return Status::Corruption("bad sparse nnz");
  }
  SparseTensor t{Shape(dims)};
  Index index(ndims);
  std::vector<Index> coords(static_cast<size_t>(nnz));
  for (int64_t e = 0; e < nnz; ++e) {
    for (uint32_t m = 0; m < ndims; ++m) {
      int64_t c = 0;
      if (!reader->Read(&c) || c < 0 || c >= dims[m]) {
        return Status::Corruption("sparse coordinate out of range");
      }
      index[m] = c;
    }
    coords[static_cast<size_t>(e)] = index;
  }
  std::vector<double> values(static_cast<size_t>(nnz));
  if (!reader->ReadDoubles(values.data(), values.size())) {
    return Status::Corruption("truncated sparse payload");
  }
  for (int64_t e = 0; e < nnz; ++e) {
    t.Add(std::move(coords[static_cast<size_t>(e)]),
          values[static_cast<size_t>(e)]);
  }
  return t;
}

Result<CsfTensor> DecodeCsf(Reader* reader, uint32_t ndims) {
  std::vector<int64_t> dims;
  TPCP_RETURN_IF_ERROR(ReadShapeDims(reader, ndims, &dims));
  const size_t n = ndims;
  // Each index costs at least one varint byte and each value eight, so
  // no count can exceed what is left of the record.
  int64_t nnz = 0;
  if (!reader->Read(&nnz) || nnz < 0 ||
      static_cast<uint64_t>(nnz) > reader->remaining() / sizeof(double)) {
    return Status::Corruption("bad sparse nnz");
  }
  std::vector<int64_t> num_nodes(n);
  for (size_t l = 0; l < n; ++l) {
    if (!reader->Read(&num_nodes[l]) || num_nodes[l] < 0 ||
        static_cast<uint64_t>(num_nodes[l]) > reader->remaining()) {
      return Status::Corruption("bad CSF node count");
    }
  }
  if (num_nodes[n - 1] != nnz) {
    return Status::Corruption("CSF leaf count != nnz");
  }
  std::vector<std::vector<int64_t>> idx(n);
  for (size_t l = 0; l < n; ++l) {
    idx[l].resize(static_cast<size_t>(num_nodes[l]));
    int64_t prev = 0;
    for (int64_t& v : idx[l]) {
      uint64_t raw = 0;
      if (!reader->ReadVarint(&raw)) {
        return Status::Corruption("truncated CSF index array");
      }
      const int64_t delta = ZigZagDecode(raw);
      if (delta < -prev || delta >= dims[l] - prev) {
        return Status::Corruption("CSF coordinate out of range");
      }
      prev += delta;
      v = prev;
    }
  }
  // Pointers: monotone from 0 to the next level's node count.
  std::vector<std::vector<int64_t>> ptr(n - 1);
  for (size_t l = 0; l + 1 < n; ++l) {
    ptr[l].resize(static_cast<size_t>(num_nodes[l]) + 1);
    const uint64_t children = static_cast<uint64_t>(num_nodes[l + 1]);
    int64_t prev = 0;
    for (int64_t& v : ptr[l]) {
      uint64_t raw = 0;
      if (!reader->ReadVarint(&raw)) {
        return Status::Corruption("truncated CSF pointer array");
      }
      if (raw > children - static_cast<uint64_t>(prev)) {
        return Status::Corruption("CSF pointer array out of bounds");
      }
      prev += static_cast<int64_t>(raw);
      v = prev;
    }
    if (ptr[l].front() != 0 || ptr[l].back() != num_nodes[l + 1]) {
      return Status::Corruption("CSF pointer array out of bounds");
    }
  }
  // Siblings strictly increase: entries are unique and in lexicographic
  // order, which both the densify and the CSF MTTKRP rely on. Level 0 is
  // one sibling run; below it, each parent's children are one.
  for (size_t l = 0; l < n; ++l) {
    const std::vector<int64_t>& ids = idx[l];
    const std::vector<int64_t> whole = {0, num_nodes[l]};
    const std::vector<int64_t>& runs = l == 0 ? whole : ptr[l - 1];
    for (size_t r = 0; r + 1 < runs.size(); ++r) {
      for (int64_t k = runs[r] + 1; k < runs[r + 1]; ++k) {
        if (ids[static_cast<size_t>(k)] <= ids[static_cast<size_t>(k) - 1]) {
          return Status::Corruption("CSF sibling indices not increasing");
        }
      }
    }
  }
  std::vector<double> values(static_cast<size_t>(nnz));
  if (!reader->ReadDoubles(values.data(), values.size())) {
    return Status::Corruption("truncated CSF values");
  }
  return CsfTensor::FromLevels(Shape(dims), std::move(idx), std::move(ptr),
                               std::move(values));
}

// Checks the envelope once and decodes whichever tensor kind the record
// holds through `as_dense`, `as_coo` or `as_csf`.
template <typename DenseFn, typename CooFn, typename CsfFn>
auto DecodeAnyTensor(const std::string& bytes, DenseFn as_dense,
                     CooFn as_coo, CsfFn as_csf)
    -> decltype(as_dense(std::declval<DenseTensor>())) {
  Reader reader(bytes);
  uint8_t kind = 0;
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelopeAny(bytes, &reader, &kind, &ndims));
  switch (kind) {
    case kKindTensor: {
      TPCP_ASSIGN_OR_RETURN(DenseTensor t, DecodeTensor(&reader, ndims));
      return as_dense(std::move(t));
    }
    case kKindSparseCoo: {
      TPCP_ASSIGN_OR_RETURN(SparseTensor t, DecodeCoo(&reader, ndims));
      return as_coo(std::move(t));
    }
    case kKindSparseCsf: {
      TPCP_ASSIGN_OR_RETURN(CsfTensor t, DecodeCsf(&reader, ndims));
      return as_csf(std::move(t));
    }
    default:
      return Status::Corruption("not a tensor record");
  }
}

}  // namespace

std::string SerializeMatrix(const Matrix& m) {
  return SerializeDims(kKindMatrix, {m.rows(), m.cols()}, m.data(), m.size());
}

Result<Matrix> DeserializeMatrix(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelope(bytes, kKindMatrix, &reader, &ndims));
  if (ndims != 2) return Status::Corruption("matrix record must have 2 dims");
  int64_t rows = 0, cols = 0;
  if (!reader.Read(&rows) || !reader.Read(&cols) || rows < 0 || cols < 0) {
    return Status::Corruption("bad matrix dims");
  }
  if (cols > 0 && static_cast<uint64_t>(rows) >
                      reader.remaining() / sizeof(double) /
                          static_cast<uint64_t>(cols)) {
    return Status::Corruption("truncated matrix payload");
  }
  Matrix m(rows, cols);
  if (!reader.ReadDoubles(m.data(), static_cast<size_t>(m.size()))) {
    return Status::Corruption("truncated matrix payload");
  }
  return m;
}

std::string SerializeTensor(const DenseTensor& t) {
  return SerializeDims(kKindTensor, t.shape().dims(), t.data(),
                       t.NumElements());
}

Result<DenseTensor> DeserializeTensor(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelope(bytes, kKindTensor, &reader, &ndims));
  return DecodeTensor(&reader, ndims);
}

std::string SerializeSparseCoo(const SparseTensor& t) {
  const uint32_t ndims = static_cast<uint32_t>(t.num_modes());
  std::string out;
  out.reserve(17 + static_cast<size_t>(ndims) * 8 +
              static_cast<size_t>(t.nnz()) * (ndims + 1) * 8 + 12);
  AppendPod(&out, kMagic);
  AppendPod(&out, kKindSparseCoo);
  AppendPod(&out, ndims);
  for (int64_t d : t.shape().dims()) AppendPod(&out, d);
  AppendPod(&out, t.nnz());
  for (const SparseEntry& e : t.entries()) {
    for (int64_t c : e.index) AppendPod(&out, c);
  }
  for (const SparseEntry& e : t.entries()) AppendPod(&out, e.value);
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

std::string SerializeSparseCsf(const CsfTensor& t) {
  const int n = t.num_modes();
  const uint32_t ndims = static_cast<uint32_t>(n);
  std::string out;
  out.reserve(17 + static_cast<size_t>(ndims) * 16 +
              static_cast<size_t>(t.nnz()) * 10 + 12);
  AppendPod(&out, kMagic);
  AppendPod(&out, kKindSparseCsf);
  AppendPod(&out, ndims);
  for (int64_t d : t.shape().dims()) AppendPod(&out, d);
  AppendPod(&out, t.nnz());
  for (int l = 0; l < n; ++l) AppendPod(&out, t.num_nodes(l));
  for (int l = 0; l < n; ++l) AppendDeltaArray(&out, t.idx(l));
  for (int l = 0; l + 1 < n; ++l) AppendMonotoneArray(&out, t.ptr(l));
  for (double v : t.values()) AppendPod(&out, v);
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

Result<CsfTensor> DeserializeSparseCsf(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(
      CheckEnvelope(bytes, kKindSparseCsf, &reader, &ndims));
  return DecodeCsf(&reader, ndims);
}

Result<SparseTensor> DeserializeSparse(const std::string& bytes) {
  return DecodeAnyTensor(
      bytes,
      [](DenseTensor) -> Result<SparseTensor> {
        return Status::Corruption("not a sparse tensor record");
      },
      [](SparseTensor t) -> Result<SparseTensor> { return t; },
      [](CsfTensor t) -> Result<SparseTensor> { return t.ToSparse(); });
}

Result<DenseTensor> DeserializeTensorAny(const std::string& bytes) {
  return DecodeAnyTensor(
      bytes, [](DenseTensor t) -> Result<DenseTensor> { return t; },
      [](SparseTensor t) -> Result<DenseTensor> { return t.ToDense(); },
      [](CsfTensor t) -> Result<DenseTensor> { return t.ToDense(); });
}

Result<CsfTensor> DeserializeCsfAny(const std::string& bytes) {
  return DecodeAnyTensor(
      bytes,
      [](DenseTensor t) -> Result<CsfTensor> {
        return CsfTensor::FromDense(t);
      },
      [](SparseTensor t) -> Result<CsfTensor> {
        return CsfTensor::FromSparse(t);
      },
      [](CsfTensor t) -> Result<CsfTensor> { return t; });
}

Result<uint8_t> PeekRecordKind(const std::string& bytes) {
  Reader reader(bytes);
  uint8_t kind = 0;
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelopeAny(bytes, &reader, &kind, &ndims));
  return kind;
}

Status WriteMatrix(Env* env, const std::string& name, const Matrix& m) {
  return env->WriteFile(name, SerializeMatrix(m));
}

Result<Matrix> ReadMatrix(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeMatrix(bytes);
}

Status WriteTensor(Env* env, const std::string& name, const DenseTensor& t) {
  return env->WriteFile(name, SerializeTensor(t));
}

Result<DenseTensor> ReadTensor(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeTensor(bytes);
}

Status WriteSparseCoo(Env* env, const std::string& name,
                      const SparseTensor& t) {
  return env->WriteFile(name, SerializeSparseCoo(t));
}

Status WriteSparseCsf(Env* env, const std::string& name,
                      const CsfTensor& t) {
  return env->WriteFile(name, SerializeSparseCsf(t));
}

Result<SparseTensor> ReadSparse(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeSparse(bytes);
}

Result<DenseTensor> ReadTensorAny(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeTensorAny(bytes);
}

}  // namespace tpcp
