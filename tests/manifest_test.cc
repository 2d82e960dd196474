#include "grid/manifest.h"

#include <gtest/gtest.h>

#include "core/block_factors.h"
#include "data/synthetic.h"
#include "grid/block_tensor_store.h"

namespace tpcp {
namespace {

GridPartition TestGrid() {
  return GridPartition(Shape({10, 9, 7}), {3, 2, 2});
}

TEST(StoreManifestTest, RoundTrip) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kTensorKind;
  manifest.grid = TestGrid();
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, StoreManifest::kTensorKind);
  EXPECT_TRUE(parsed->grid == manifest.grid);
  EXPECT_EQ(parsed->rank, 0);
}

TEST(StoreManifestTest, FactorsRoundTripKeepsRank) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 12;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, StoreManifest::kFactorsKind);
  EXPECT_EQ(parsed->rank, 12);
}

TEST(StoreManifestTest, GarbageIsCorruption) {
  for (const char* bytes :
       {"", "not a manifest",
        "tpcp-manifest 1\nkind tensor\n",           // missing geometry
        "tpcp-manifest 1\nkind what\nshape 4\nparts 2\n",
        "tpcp-manifest 1\nkind tensor\nshape 4 4\nparts 8 8\n",  // parts>dim
        "tpcp-manifest 1\nkind factors\nshape 4 4\nparts 2 2\n",  // no rank
        "tpcp-manifest 1\nkind tensor\nshape 4 4\nparts 2 2\nwat 1\n"}) {
    auto parsed = StoreManifest::Parse(bytes);
    EXPECT_FALSE(parsed.ok()) << "'" << bytes << "'";
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorruption()) << bytes;
    }
  }
}

TEST(StoreManifestTest, BadGeometryIsCorruptionNotACrash) {
  // Each of these used to reach Shape(), which CHECK-aborts on it.
  for (const char* bytes :
       {"tpcp-manifest 4\nkind tensor\nshape 60 0 60\nparts 2 1 2\n",
        "tpcp-manifest 4\nkind tensor\nshape 60 -4 60\nparts 2 1 2\n",
        "tpcp-manifest 4\nkind tensor\nshape 4294967296 4294967296 4\n"
        "parts 2 2 2\n",
        "tpcp-manifest 4\nkind tensor\nshape 60 60 60\nparts 2 0 2\n"}) {
    auto parsed = StoreManifest::Parse(bytes);
    ASSERT_FALSE(parsed.ok()) << bytes;
    EXPECT_TRUE(parsed.status().IsCorruption()) << bytes;
  }
}

TEST(StoreManifestTest, NewerVersionIsIncompatibleNotCorrupt) {
  auto parsed = StoreManifest::Parse("tpcp-manifest 6\nkind tensor\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreManifestTest, Version1StillParses) {
  auto parsed = StoreManifest::Parse(
      "tpcp-manifest 1\nkind factors\nshape 10 9 7\nparts 3 2 2\nrank 4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rank, 4);
  EXPECT_FALSE(parsed->checkpoint.has_value());
  // The checkpoint vocabulary did not exist at version 1.
  auto v1_ckpt = StoreManifest::Parse(
      "tpcp-manifest 1\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n"
      "ckpt_cursor 3\n");
  ASSERT_FALSE(v1_ckpt.ok());
  EXPECT_TRUE(v1_ckpt.status().IsCorruption());
}

TEST(StoreManifestTest, SlabFormatRoundTripsAtV4) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kTensorKind;
  manifest.grid = TestGrid();
  for (SlabFormat format :
       {SlabFormat::kDense, SlabFormat::kCoo, SlabFormat::kCsf}) {
    manifest.format = format;
    const std::string bytes = manifest.Serialize();
    // Dense is the implicit default: no key, so v<4 readers of dense
    // stores are unaffected by the version bump.
    EXPECT_EQ(bytes.find("format") != std::string::npos,
              format != SlabFormat::kDense);
    auto parsed = StoreManifest::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->format, format);
  }
}

TEST(StoreManifestTest, SlabFormatUnknownToOlderVersionsIsCorruption) {
  // The key only exists from v4 on; a v3 manifest carrying it is as
  // malformed as any other unknown key.
  auto parsed = StoreManifest::Parse(
      "tpcp-manifest 3\nkind tensor\nshape 10 9 7\nparts 3 2 2\n"
      "format csf\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(StoreManifestTest, BadSlabFormatValueIsCorruption) {
  auto parsed = StoreManifest::Parse(
      "tpcp-manifest 4\nkind tensor\nshape 10 9 7\nparts 3 2 2\n"
      "format lzma\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(StoreManifestTest, PlanFingerprintRoundTripsAndV2Defaults) {
  // v3 serializes the execution-plan fingerprint bit for bit.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 3;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "fo";
  ckpt.iteration = 1;
  ckpt.cursor = 9;
  ckpt.fit_trace = {0.25};
  ckpt.plan_fingerprint = 0xdeadbeefcafef00dull;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->plan_fingerprint, 0xdeadbeefcafef00dull);

  // A v2 checkpoint (pre-planner) parses with "not recorded" (0).
  auto v2 = StoreManifest::Parse(
      "tpcp-manifest 2\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n"
      "ckpt_schedule zo\nckpt_iteration 1\nckpt_cursor 4\nckpt_fit 0.5\n");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v2->checkpoint.has_value());
  EXPECT_EQ(v2->checkpoint->plan_fingerprint, 0u);

  // The ckpt_plan vocabulary did not exist at version 2.
  auto v2_plan = StoreManifest::Parse(
      "tpcp-manifest 2\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n"
      "ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\nckpt_plan 7\n"
      "ckpt_fit\n");
  ASSERT_FALSE(v2_plan.ok());
  EXPECT_TRUE(v2_plan.status().IsCorruption());
}

TEST(StoreManifestTest, OwnershipFingerprintRoundTripsAndV4Defaults) {
  // v5 serializes the dist ownership-map fingerprint bit for bit.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 3;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "mc";
  ckpt.iteration = 1;
  ckpt.cursor = 7;
  ckpt.fit_trace = {0.5};
  ckpt.ownership_fingerprint = 0x0123456789abcdefull;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->ownership_fingerprint,
            0x0123456789abcdefull);

  // A v4 checkpoint (single-process era) parses with "not recorded" (0).
  auto v4 = StoreManifest::Parse(
      "tpcp-manifest 4\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n"
      "ckpt_schedule zo\nckpt_iteration 1\nckpt_cursor 4\nckpt_fit 0.5\n");
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  ASSERT_TRUE(v4->checkpoint.has_value());
  EXPECT_EQ(v4->checkpoint->ownership_fingerprint, 0u);

  // The ckpt_ownership vocabulary did not exist at version 4.
  auto v4_own = StoreManifest::Parse(
      "tpcp-manifest 4\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n"
      "ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\n"
      "ckpt_ownership 7\nckpt_fit\n");
  ASSERT_FALSE(v4_own.ok());
  EXPECT_TRUE(v4_own.status().IsCorruption());
}

TEST(StoreManifestTest, CheckpointRoundTrip) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 5;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "ho";
  ckpt.iteration = 3;
  ckpt.cursor = 23;
  ckpt.fit_trace = {0.5123456789012345, 0.75, 0.8000000000000007};
  manifest.checkpoint = ckpt;

  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->schedule, "ho");
  EXPECT_EQ(parsed->checkpoint->iteration, 3);
  EXPECT_EQ(parsed->checkpoint->cursor, 23);
  // Bit-exact doubles: resume must replay the same trace.
  EXPECT_EQ(parsed->checkpoint->fit_trace, ckpt.fit_trace);
}

TEST(StoreManifestTest, EmptyFitTraceCheckpointRoundTrips) {
  // A job cancelled inside its first virtual iteration has a cursor but
  // no completed-iteration fits yet.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 2;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "zo";
  ckpt.iteration = 0;
  ckpt.cursor = 2;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->cursor, 2);
  EXPECT_TRUE(parsed->checkpoint->fit_trace.empty());
}

TEST(StoreManifestTest, MalformedCheckpointIsCorruption) {
  const std::string base =
      "tpcp-manifest 2\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n";
  for (const std::string& extra :
       {std::string("ckpt_cursor 3\n"),  // no schedule / fit line
        std::string("ckpt_schedule zo\nckpt_iteration 2\nckpt_cursor 9\n"
                    "ckpt_fit 0.5\n"),   // trace size != iteration
        std::string("ckpt_schedule zo\nckpt_iteration -1\nckpt_cursor 0\n"
                    "ckpt_fit\n"),
        std::string("ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\n"
                    "ckpt_fit wat\n")}) {
    auto parsed = StoreManifest::Parse(base + extra);
    EXPECT_FALSE(parsed.ok()) << extra;
    if (!parsed.ok()) EXPECT_TRUE(parsed.status().IsCorruption()) << extra;
  }
  // Checkpoints belong to factor stores only.
  auto tensor_ckpt = StoreManifest::Parse(
      "tpcp-manifest 2\nkind tensor\nshape 4 4\nparts 2 2\n"
      "ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\nckpt_fit\n");
  ASSERT_FALSE(tensor_ckpt.ok());
  EXPECT_TRUE(tensor_ckpt.status().IsCorruption());
}

TEST(BlockTensorStoreManifestTest, NewerManifestIsNeverClobbered) {
  auto env = NewMemEnv();
  const std::string future = "tpcp-manifest 6\nkind tensor\nfrobnicate 7\n";
  ASSERT_TRUE(env->WriteFile("t/MANIFEST", future).ok());
  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  // The future-version manifest survives untouched — no scan-and-heal.
  std::string bytes;
  ASSERT_TRUE(env->ReadFile("t/MANIFEST", &bytes).ok());
  EXPECT_EQ(bytes, future);
}

TEST(BlockTensorStoreManifestTest, CreateWritesOpenReads) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  auto created = BlockTensorStore::Create(env.get(), "t", grid);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_TRUE(env->FileExists("t/MANIFEST"));

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
}

TEST(BlockTensorStoreManifestTest, OpenUsesManifestWithoutScanning) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  ASSERT_TRUE(BlockTensorStore::Create(env.get(), "t", grid).ok());
  // No blocks exist; a filename scan would fail, so a successful Open
  // proves the manifest is the happy path.
  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
}

TEST(BlockTensorStoreManifestTest, MissingManifestFallsBackToScan) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  // A legacy store: blocks written through the manifest-less constructor.
  BlockTensorStore legacy(env.get(), "t", grid);
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  ASSERT_TRUE(legacy.ImportTensor(MakeLowRankTensor(spec)).ok());
  ASSERT_FALSE(env->FileExists("t/MANIFEST"));

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
  // The recovered geometry is healed into a manifest for the next Open.
  EXPECT_TRUE(env->FileExists("t/MANIFEST"));
}

TEST(BlockTensorStoreManifestTest, CorruptManifestFallsBackToScan) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  BlockTensorStore legacy(env.get(), "t", grid);
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  ASSERT_TRUE(legacy.ImportTensor(MakeLowRankTensor(spec)).ok());
  ASSERT_TRUE(env->WriteFile("t/MANIFEST", "scribbled over").ok());

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
}

TEST(BlockTensorStoreManifestTest, SparseFormatsReadBackBitIdentical) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  const DenseTensor tensor = MakeLowRankTensor(spec);

  auto dense = BlockTensorStore::Create(env.get(), "d", grid);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(dense->ImportTensor(tensor).ok());
  for (SlabFormat format : {SlabFormat::kCoo, SlabFormat::kCsf}) {
    const std::string prefix =
        format == SlabFormat::kCoo ? "coo" : "csf";
    auto store = BlockTensorStore::Create(env.get(), prefix, grid, format);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->format(), format);
    ASSERT_TRUE(store->ImportTensor(tensor).ok());
    // Reopen through the manifest: the format must survive the round
    // trip, and every block must decode to the dense store's bits.
    auto opened = BlockTensorStore::Open(env.get(), prefix);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->format(), format);
    for (const BlockIndex& block : grid.AllBlocks()) {
      auto want = dense->ReadBlock(block);
      auto got = opened->ReadBlock(block);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want->NumElements(), got->NumElements());
      for (int64_t i = 0; i < want->NumElements(); ++i) {
        ASSERT_EQ(want->at_linear(i), got->at_linear(i))
            << prefix << " block i=" << i;
      }
    }
  }
}

TEST(BlockTensorStoreManifestTest, ReadBlockSparseWorksOnEveryFormat) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 7;
  const DenseTensor tensor = MakeLowRankTensor(spec);
  const BlockIndex block = grid.AllBlocks().front();
  std::vector<SparseEntry> reference;
  for (SlabFormat format :
       {SlabFormat::kDense, SlabFormat::kCoo, SlabFormat::kCsf}) {
    const std::string prefix = SlabFormatName(format);
    auto store = BlockTensorStore::Create(env.get(), prefix, grid, format);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ImportTensor(tensor).ok());
    auto sparse = store->ReadBlockSparse(block);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    if (reference.empty()) {
      reference = sparse->entries();
      ASSERT_FALSE(reference.empty());
    } else {
      // Same entries in the same lexicographic order on every format.
      ASSERT_EQ(sparse->entries().size(), reference.size()) << prefix;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(sparse->entries()[i].index, reference[i].index);
        ASSERT_EQ(sparse->entries()[i].value, reference[i].value);
      }
    }
  }
}

TEST(BlockTensorStoreManifestTest, ScanHealRecoversCsfFormat) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 9;
  {
    auto store =
        BlockTensorStore::Create(env.get(), "t", grid, SlabFormat::kCsf);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ImportTensor(MakeLowRankTensor(spec)).ok());
  }
  // A pre-manifest layout of a CSF store: the healed manifest must carry
  // the format sniffed from the block records, or the next writer would
  // silently demote the store to dense slabs.
  ASSERT_TRUE(env->DeleteFile("t/MANIFEST").ok());
  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->format(), SlabFormat::kCsf);
  std::string healed;
  ASSERT_TRUE(env->ReadFile("t/MANIFEST", &healed).ok());
  EXPECT_NE(healed.find("format csf"), std::string::npos);
}

TEST(BlockTensorStoreManifestTest, OpenOfNothingIsNotFound) {
  auto env = NewMemEnv();
  auto opened = BlockTensorStore::Open(env.get(), "empty");
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound());
}

TEST(BlockTensorStoreManifestTest, CreateValidatesArguments) {
  auto env = NewMemEnv();
  EXPECT_EQ(BlockTensorStore::Create(nullptr, "t", TestGrid())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockTensorStore::Create(env.get(), "", TestGrid())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockTensorStore::Create(env.get(), "t", GridPartition())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockFactorStoreManifestTest, CreateOpenRoundTrip) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  auto created = BlockFactorStore::Create(env.get(), "f", grid, 4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto opened = BlockFactorStore::Open(env.get(), "f");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
  EXPECT_EQ(opened->rank(), 4);
}

TEST(BlockFactorStoreManifestTest, CreateValidatesRank) {
  auto env = NewMemEnv();
  auto bad = BlockFactorStore::Create(env.get(), "f", TestGrid(), 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockFactorStoreManifestTest, OpenRejectsTensorStore) {
  auto env = NewMemEnv();
  ASSERT_TRUE(BlockTensorStore::Create(env.get(), "t", TestGrid()).ok());
  auto opened = BlockFactorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tpcp
