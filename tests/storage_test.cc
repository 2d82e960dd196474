#include <gtest/gtest.h>

#include <filesystem>

#include "storage/crc32.h"
#include "storage/env.h"
#include "storage/faulty_env.h"
#include "storage/retry_env.h"
#include "storage/serializer.h"
#include "util/random.h"

namespace tpcp {
namespace {

TEST(Crc32Test, KnownVector) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  std::string data = "hello world";
  const uint32_t base = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

// Byte-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven implementation must reproduce.
uint32_t BitwiseCrc32(const uint8_t* bytes, size_t n, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesByteAtATimeAtEveryLengthAndAlignment) {
  Rng rng(42);
  std::vector<uint8_t> buffer(4097 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextUint64());
  for (int offset : {0, 1, 3, 6}) {
    for (size_t n = 0; n <= 4097; ++n) {
      const uint8_t* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, n), BitwiseCrc32(start, n))
          << "offset " << offset << " length " << n;
    }
  }
  // Continuing a running checksum equals checksumming the concatenation.
  const uint32_t head = Crc32(buffer.data() + 1, 13);
  EXPECT_EQ(Crc32(buffer.data() + 14, 1000, head),
            BitwiseCrc32(buffer.data() + 1, 1013));
}

class EnvTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "mem") {
      env_ = NewMemEnv();
    } else {
      root_ = std::filesystem::temp_directory_path() /
              ("tpcp_env_test_" + std::to_string(::getpid()));
      env_ = NewPosixEnv(root_.string());
    }
  }
  void TearDown() override {
    env_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<Env> env_;
  std::filesystem::path root_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(env_->WriteFile("a/b/file", "payload").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("a/b/file", &out).ok());
  EXPECT_EQ(out, "payload");
}

TEST_P(EnvTest, ReadMissingIsNotFound) {
  std::string out;
  EXPECT_TRUE(env_->ReadFile("missing", &out).IsNotFound());
}

TEST_P(EnvTest, OverwriteReplacesContent) {
  ASSERT_TRUE(env_->WriteFile("f", "one").ok());
  ASSERT_TRUE(env_->WriteFile("f", "two-longer").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("f", &out).ok());
  EXPECT_EQ(out, "two-longer");
}

TEST_P(EnvTest, ExistsDeleteSize) {
  EXPECT_FALSE(env_->FileExists("f"));
  ASSERT_TRUE(env_->WriteFile("f", "12345").ok());
  EXPECT_TRUE(env_->FileExists("f"));
  auto size = env_->FileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 5u);
  EXPECT_TRUE(env_->DeleteFile("f").ok());
  EXPECT_FALSE(env_->FileExists("f"));
  EXPECT_TRUE(env_->DeleteFile("f").IsNotFound());
  EXPECT_FALSE(env_->FileSize("f").ok());
}

TEST_P(EnvTest, EmptyFile) {
  ASSERT_TRUE(env_->WriteFile("empty", "").ok());
  std::string out = "junk";
  ASSERT_TRUE(env_->ReadFile("empty", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EnvTest, ListFilesByPrefix) {
  ASSERT_TRUE(env_->WriteFile("dir/a", "1").ok());
  ASSERT_TRUE(env_->WriteFile("dir/b", "2").ok());
  ASSERT_TRUE(env_->WriteFile("other/c", "3").ok());
  const auto files = env_->ListFiles("dir/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "dir/a");
  EXPECT_EQ(files[1], "dir/b");
}

TEST_P(EnvTest, StatsTrackBytes) {
  env_->stats().Reset();
  ASSERT_TRUE(env_->WriteFile("f", "1234").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("f", &out).ok());
  EXPECT_EQ(env_->stats().writes(), 1u);
  EXPECT_EQ(env_->stats().reads(), 1u);
  EXPECT_EQ(env_->stats().bytes_written(), 4u);
  EXPECT_EQ(env_->stats().bytes_read(), 4u);
  EXPECT_NE(env_->stats().ToString().find("reads=1"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, EnvTest, ::testing::Values("mem", "posix"));

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

TEST(SerializerTest, MatrixRoundTrip) {
  const Matrix m = RandomMatrix(7, 5, 1);
  auto back = DeserializeMatrix(SerializeMatrix(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == m);
}

TEST(SerializerTest, EmptyMatrixRoundTrip) {
  const Matrix m(0, 0);
  auto back = DeserializeMatrix(SerializeMatrix(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 0);
}

TEST(SerializerTest, TensorRoundTrip) {
  Rng rng(2);
  DenseTensor t{Shape({3, 4, 2})};
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) = rng.NextGaussian();
  }
  auto back = DeserializeTensor(SerializeTensor(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shape(), t.shape());
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_EQ(back->at_linear(i), t.at_linear(i));
  }
}

TEST(SerializerTest, DetectsCorruption) {
  std::string bytes = SerializeMatrix(RandomMatrix(4, 4, 3));
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(DeserializeMatrix(bytes).status().IsCorruption());
}

TEST(SerializerTest, DetectsTruncation) {
  std::string bytes = SerializeMatrix(RandomMatrix(4, 4, 4));
  bytes.resize(bytes.size() / 2);
  EXPECT_TRUE(DeserializeMatrix(bytes).status().IsCorruption());
}

TEST(SerializerTest, RejectsWrongKind) {
  DenseTensor t{Shape({2, 2})};
  EXPECT_TRUE(
      DeserializeMatrix(SerializeTensor(t)).status().IsCorruption());
}

TEST(SerializerTest, EnvWrappers) {
  auto env = NewMemEnv();
  const Matrix m = RandomMatrix(3, 3, 5);
  ASSERT_TRUE(WriteMatrix(env.get(), "m", m).ok());
  auto back = ReadMatrix(env.get(), "m");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == m);
  EXPECT_TRUE(ReadMatrix(env.get(), "nope").status().IsNotFound());
}

SparseTensor ClusteredSparse(uint64_t seed) {
  // Non-zeros clustered into fibers: the case CSF's shared prefixes and
  // tiny leaf deltas are built for.
  Rng rng(seed);
  SparseTensor t(Shape({20, 18, 16}));
  for (int64_t i = 0; i < 20; i += 2) {
    for (int64_t j = 0; j < 6; ++j) {
      for (int64_t k = 3; k < 11; ++k) {
        t.Add({i, j, k}, rng.NextGaussian());
      }
    }
  }
  return t;
}

TEST(SerializerTest, SparseCooRoundTrip) {
  const SparseTensor t = ClusteredSparse(6);
  auto back = DeserializeSparse(SerializeSparseCoo(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nnz(), t.nnz());
  for (int64_t i = 0; i < t.nnz(); ++i) {
    const SparseEntry& a = t.entries()[static_cast<size_t>(i)];
    const SparseEntry& b = back->entries()[static_cast<size_t>(i)];
    ASSERT_EQ(a.index, b.index);
    ASSERT_EQ(a.value, b.value);
  }
}

TEST(SerializerTest, SparseCsfRoundTrip) {
  const CsfTensor t = CsfTensor::FromSparse(ClusteredSparse(7));
  const std::string bytes = SerializeSparseCsf(t);
  auto back = DeserializeSparseCsf(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nnz(), t.nnz());
  for (int level = 0; level < t.num_modes(); ++level) {
    ASSERT_EQ(back->idx(level), t.idx(level)) << "level=" << level;
    if (level + 1 < t.num_modes()) {
      ASSERT_EQ(back->ptr(level), t.ptr(level)) << "level=" << level;
    }
  }
  ASSERT_EQ(back->values(), t.values());
  // Also decodable straight to COO and to dense through the auto paths.
  auto coo = DeserializeSparse(bytes);
  ASSERT_TRUE(coo.ok());
  EXPECT_EQ(coo->nnz(), t.nnz());
  auto dense = DeserializeTensorAny(bytes);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->shape(), t.shape());
}

TEST(SerializerTest, CsfDeltaCodingBeatsCooOnClusteredData) {
  const SparseTensor coo = ClusteredSparse(8);
  const std::string coo_bytes = SerializeSparseCoo(coo);
  const std::string csf_bytes =
      SerializeSparseCsf(CsfTensor::FromSparse(coo));
  EXPECT_LT(csf_bytes.size(), coo_bytes.size() / 2)
      << "csf=" << csf_bytes.size() << " coo=" << coo_bytes.size();
}

TEST(SerializerTest, PeekRecordKindDistinguishesAllKinds) {
  DenseTensor dense{Shape({2, 3})};
  dense.at_linear(1) = 4.0;
  const SparseTensor coo = SparseTensor::FromDense(dense);
  auto kind = PeekRecordKind(SerializeTensor(dense));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 2);
  kind = PeekRecordKind(SerializeSparseCoo(coo));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 3);
  kind = PeekRecordKind(SerializeSparseCsf(CsfTensor::FromSparse(coo)));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 4);
  EXPECT_TRUE(PeekRecordKind("junk").status().IsCorruption());
}

TEST(SerializerTest, DeserializeTensorAnyMatchesAcrossKinds) {
  Rng rng(9);
  DenseTensor dense{Shape({4, 3, 5})};
  for (int64_t i = 0; i < dense.NumElements(); ++i) {
    dense.at_linear(i) = rng.NextDouble() < 0.3 ? rng.NextGaussian() : 0.0;
  }
  const std::string as_dense = SerializeTensor(dense);
  const std::string as_coo =
      SerializeSparseCoo(SparseTensor::FromDense(dense));
  const std::string as_csf =
      SerializeSparseCsf(CsfTensor::FromDense(dense));
  for (const std::string* bytes : {&as_dense, &as_coo, &as_csf}) {
    auto back = DeserializeTensorAny(*bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->shape(), dense.shape());
    for (int64_t i = 0; i < dense.NumElements(); ++i) {
      ASSERT_EQ(back->at_linear(i), dense.at_linear(i)) << "i=" << i;
    }
  }
}

TEST(SerializerTest, SparseRecordsDetectCorruptionAndTruncation) {
  for (std::string bytes :
       {SerializeSparseCoo(ClusteredSparse(10)),
        SerializeSparseCsf(CsfTensor::FromSparse(ClusteredSparse(10)))}) {
    std::string flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x10;
    EXPECT_TRUE(DeserializeSparse(flipped).status().IsCorruption());
    bytes.resize(bytes.size() / 2);
    EXPECT_TRUE(DeserializeSparse(bytes).status().IsCorruption());
  }
}

// ---- decoder hardening: CRC-valid records with bad structure ----------

void AppendVarintTo(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

template <typename T>
void AppendPodTo(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::string Sealed(std::string body) {
  AppendPodTo(&body, Crc32(body.data(), body.size()));
  return body;
}

std::string Header(uint8_t kind, const std::vector<int64_t>& dims) {
  std::string out;
  AppendPodTo(&out, static_cast<uint32_t>(0x32504350));
  AppendPodTo(&out, kind);
  AppendPodTo(&out, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) AppendPodTo(&out, d);
  return out;
}

// A 2x2x2 CSF record with the given level arrays, written as the
// serializer does (index deltas zigzag-coded, pointer deltas unsigned and
// wrapping, so any pointer value is expressible).
std::string CsfRecord(const std::vector<std::vector<int64_t>>& idx,
                      const std::vector<std::vector<int64_t>>& ptr,
                      const std::vector<double>& values) {
  std::string out = Header(4, {2, 2, 2});
  AppendPodTo(&out, static_cast<int64_t>(values.size()));
  for (const std::vector<int64_t>& level : idx) {
    AppendPodTo(&out, static_cast<int64_t>(level.size()));
  }
  for (const std::vector<int64_t>& level : idx) {
    int64_t prev = 0;
    for (int64_t v : level) {
      const int64_t d = v - prev;
      AppendVarintTo(&out, (static_cast<uint64_t>(d) << 1) ^
                               static_cast<uint64_t>(d >> 63));
      prev = v;
    }
  }
  for (const std::vector<int64_t>& level : ptr) {
    uint64_t prev = 0;
    for (int64_t v : level) {
      AppendVarintTo(&out, static_cast<uint64_t>(v) - prev);
      prev = static_cast<uint64_t>(v);
    }
  }
  for (double v : values) AppendPodTo(&out, v);
  return Sealed(out);
}

void ExpectEveryDecoderRejects(const std::string& bytes) {
  EXPECT_TRUE(DeserializeSparseCsf(bytes).status().IsCorruption())
      << DeserializeSparseCsf(bytes).status().ToString();
  EXPECT_TRUE(DeserializeSparse(bytes).status().IsCorruption());
  EXPECT_TRUE(DeserializeTensorAny(bytes).status().IsCorruption());
  EXPECT_TRUE(DeserializeCsfAny(bytes).status().IsCorruption());
}

TEST(SerializerTest, HandBuiltCsfRecordDecodes) {
  // The builder itself is right: a well-formed record decodes. Fibers
  // (0, 0) and (1, 1) both hold leaf k = 1 — equal indices under
  // different parents are fine.
  const std::string bytes =
      CsfRecord({{0, 1}, {0, 1}, {1, 0, 1}}, {{0, 1, 2}, {0, 1, 3}},
                {1.0, 2.0, 3.0});
  auto csf = DeserializeSparseCsf(bytes);
  ASSERT_TRUE(csf.ok()) << csf.status().ToString();
  auto dense = DeserializeTensorAny(bytes);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->at({0, 0, 1}), 1.0);
  EXPECT_EQ(dense->at({1, 1, 0}), 2.0);
  EXPECT_EQ(dense->at({1, 1, 1}), 3.0);
}

TEST(SerializerTest, CsfPointerOutsideItsLevelIsCorruption) {
  // ptr(1) = [0, 2^26, 2]: front and back are in bounds, the middle is
  // not. Decoding used to accept it and the densify wrote far out of
  // bounds.
  ExpectEveryDecoderRejects(CsfRecord({{0}, {0, 1}, {0, 1}},
                                      {{0, 2}, {0, int64_t{1} << 26, 2}},
                                      {1.0, 2.0}));
  // A pointer array that steps back down (non-monotone) while every
  // value, the front and the back stay in range: leaf 1 would be visited
  // under two fibers.
  ExpectEveryDecoderRejects(CsfRecord({{0, 1}, {0, 1, 1}, {0, 1}},
                                      {{0, 2, 3}, {0, 2, 1, 2}}, {1.0, 2.0}));
}

TEST(SerializerTest, CsfSiblingsMustStrictlyIncrease) {
  // Duplicate leaf k under one fiber, then a decreasing pair, then
  // decreasing fibers under one root node.
  ExpectEveryDecoderRejects(
      CsfRecord({{0}, {0}, {1, 1}}, {{0, 1}, {0, 2}}, {1.0, 2.0}));
  ExpectEveryDecoderRejects(
      CsfRecord({{0}, {0}, {1, 0}}, {{0, 1}, {0, 2}}, {1.0, 2.0}));
  ExpectEveryDecoderRejects(
      CsfRecord({{0}, {1, 0}, {0, 0}}, {{0, 2}, {0, 1, 2}}, {1.0, 2.0}));
}

TEST(SerializerTest, CountsLargerThanTheRecordAreCorruption) {
  // Header counts that would size a vector far beyond the record's bytes
  // are rejected before any allocation (they used to throw length_error
  // or exhaust memory).
  const int64_t huge = int64_t{1} << 40;
  std::string csf = Header(4, {2, 2, 2});
  AppendPodTo(&csf, huge);  // nnz
  for (int64_t n : {int64_t{1}, int64_t{1}, huge}) AppendPodTo(&csf, n);
  ExpectEveryDecoderRejects(Sealed(csf));

  std::string csf_nodes = Header(4, {2, 2, 2});
  AppendPodTo(&csf_nodes, int64_t{1});
  for (int64_t n : {huge, int64_t{1}, int64_t{1}}) {
    AppendPodTo(&csf_nodes, n);
  }
  ExpectEveryDecoderRejects(Sealed(csf_nodes));

  std::string coo = Header(3, {2, 2, 2});
  AppendPodTo(&coo, huge);
  EXPECT_TRUE(DeserializeSparse(Sealed(coo)).status().IsCorruption());
  EXPECT_TRUE(DeserializeCsfAny(Sealed(coo)).status().IsCorruption());

  // Sparse dims whose dense element count overflows int64, with one entry
  // in range: no Shape can index them (this record used to segfault).
  std::string coo_dims = Header(3, {int64_t{1} << 62, 4, 4});
  AppendPodTo(&coo_dims, int64_t{1});
  for (int64_t c : {int64_t{1} << 61, int64_t{0}, int64_t{0}}) {
    AppendPodTo(&coo_dims, c);
  }
  AppendPodTo(&coo_dims, 1.0);
  EXPECT_TRUE(DeserializeSparse(Sealed(coo_dims)).status().IsCorruption());
  EXPECT_TRUE(DeserializeTensorAny(Sealed(coo_dims)).status().IsCorruption());

  // Dense dims whose product overflows int64, and a matrix far larger
  // than its record.
  const std::string dense = Sealed(Header(2, {huge, huge, huge}));
  EXPECT_TRUE(DeserializeTensor(dense).status().IsCorruption());
  EXPECT_TRUE(DeserializeTensorAny(dense).status().IsCorruption());
  EXPECT_TRUE(DeserializeMatrix(Sealed(Header(1, {huge, huge})))
                  .status()
                  .IsCorruption());
}

TEST(SerializerTest, EmptySparseRecordsRoundTrip) {
  // nnz == 0: every payload array is empty (no zero-length copy into a
  // null buffer).
  const SparseTensor empty{Shape({3, 2, 4})};
  for (const std::string& bytes :
       {SerializeSparseCoo(empty),
        SerializeSparseCsf(CsfTensor::FromSparse(empty))}) {
    auto csf = DeserializeCsfAny(bytes);
    ASSERT_TRUE(csf.ok()) << csf.status().ToString();
    EXPECT_EQ(csf->nnz(), 0);
    auto dense = DeserializeTensorAny(bytes);
    ASSERT_TRUE(dense.ok());
    EXPECT_EQ(dense->CountNonZeros(), 0);
  }
}

TEST(SerializerTest, SparseEnvWrappers) {
  auto env = NewMemEnv();
  const SparseTensor t = ClusteredSparse(11);
  ASSERT_TRUE(WriteSparseCoo(env.get(), "coo", t).ok());
  ASSERT_TRUE(
      WriteSparseCsf(env.get(), "csf", CsfTensor::FromSparse(t)).ok());
  for (const char* name : {"coo", "csf"}) {
    auto back = ReadSparse(env.get(), name);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_EQ(back->nnz(), t.nnz()) << name;
    auto dense = ReadTensorAny(env.get(), name);
    ASSERT_TRUE(dense.ok()) << name;
  }
  EXPECT_TRUE(ReadSparse(env.get(), "nope").status().IsNotFound());
}

TEST(FaultyEnvTest, InjectsWriteFailures) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  env.FailWritesAfter(2);
  EXPECT_TRUE(env.WriteFile("a", "1").ok());
  EXPECT_TRUE(env.WriteFile("b", "2").ok());
  EXPECT_TRUE(env.WriteFile("c", "3").IsIOError());
  EXPECT_TRUE(env.WriteFile("d", "4").IsIOError());
}

TEST(FaultyEnvTest, InjectsReadFailures) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(env.WriteFile("a", "1").ok());
  env.FailReadsAfter(0);
  std::string out;
  EXPECT_TRUE(env.ReadFile("a", &out).IsIOError());
}

TEST(FaultyEnvTest, CorruptionIsCaughtByChecksum) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(WriteMatrix(&env, "m", RandomMatrix(4, 4, 6)).ok());
  env.CorruptReads(true);
  EXPECT_TRUE(ReadMatrix(&env, "m").status().IsCorruption());
}

TEST(FaultyEnvTest, TruncationIsCaughtByChecksum) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(WriteMatrix(&env, "m", RandomMatrix(4, 4, 7)).ok());
  env.TruncateReads(true);
  EXPECT_TRUE(ReadMatrix(&env, "m").status().IsCorruption());
}

TEST(FaultyEnvTest, TransientFaultsFailOnceAndRecover) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  env.TransientWriteFaultEvery(3);
  // Every 3rd write op fails once; the immediate retry is a new op and
  // succeeds — the shape RetryEnv is built to absorb.
  EXPECT_TRUE(env.WriteFile("a", "1").ok());
  EXPECT_TRUE(env.WriteFile("b", "2").ok());
  EXPECT_TRUE(env.WriteFile("c", "3").IsIOError());
  EXPECT_TRUE(env.WriteFile("c", "3").ok());
  EXPECT_TRUE(env.WriteFile("d", "4").ok());
  EXPECT_TRUE(env.WriteFile("e", "5").IsIOError());
  EXPECT_TRUE(env.WriteFile("e", "5").ok());

  env.TransientReadFaultEvery(2);
  std::string out;
  EXPECT_TRUE(env.ReadFile("a", &out).ok());
  EXPECT_TRUE(env.ReadFile("a", &out).IsIOError());
  EXPECT_TRUE(env.ReadFile("a", &out).ok());
  EXPECT_EQ(out, "1");
}

TEST(RetryEnvTest, AbsorbsTransientFaults) {
  auto base = NewMemEnv();
  FaultyEnv flaky(base.get());
  flaky.TransientWriteFaultEvery(2);
  flaky.TransientReadFaultEvery(2);
  RetryPolicy policy;
  policy.initial_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  RetryEnv env(&flaky, policy);
  for (int i = 0; i < 10; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(env.WriteFile(name, name).ok()) << name;
    std::string out;
    ASSERT_TRUE(env.ReadFile(name, &out).ok()) << name;
    EXPECT_EQ(out, name);
  }
}

TEST(RetryEnvTest, PermanentFaultsSurfaceAfterBudget) {
  auto base = NewMemEnv();
  FaultyEnv broken(base.get());
  broken.FailWritesAfter(0);  // every attempt fails: transient code,
                              // permanent behavior
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  RetryEnv env(&broken, policy);
  const Status status = env.WriteFile("a", "1");
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.ToString().find("3 attempts"), std::string::npos)
      << status.ToString();

  // Deterministic failures short-circuit: no attempt budget burned.
  std::string out;
  EXPECT_TRUE(env.ReadFile("missing", &out).IsNotFound());
}

TEST(FaultyEnvTest, DelegatesMetadataOps) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(env.WriteFile("x/y", "abc").ok());
  EXPECT_TRUE(env.FileExists("x/y"));
  EXPECT_EQ(env.FileSize("x/y").value(), 3u);
  EXPECT_EQ(env.ListFiles("x/").size(), 1u);
  EXPECT_TRUE(env.DeleteFile("x/y").ok());
}

}  // namespace
}  // namespace tpcp
