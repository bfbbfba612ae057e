// Tests for src/serve: query canonicalization, the embedding store's
// batched scoring (bit-identical to CheckpointRecommender::Score), the
// sharded LRU cache, serving counters and the ServingEngine's sync, async
// and shutdown behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/obs/registry.h"
#include "src/serve/cache.h"
#include "src/serve/embedding_store.h"
#include "src/serve/engine.h"
#include "src/serve/query.h"
#include "src/serve/slow_log.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "tests/serve_test_util.h"

namespace smgcn {
namespace serve {
namespace {

// A deterministic synthetic checkpoint: no training required to exercise
// the serving stack.
core::InferenceCheckpoint MakeCheckpoint(std::size_t num_symptoms = 24,
                                         std::size_t num_herbs = 40,
                                         std::size_t dim = 8,
                                         bool with_si_mlp = true,
                                         bool with_herb_bipar = false) {
  Rng rng(907);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "test-ckpt";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(num_symptoms, dim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = with_si_mlp;
  if (with_si_mlp) {
    ckpt.si_weight = tensor::Matrix::RandomNormal(dim, dim, 0.0, 0.5, &rng);
    ckpt.si_bias = tensor::Matrix::RandomNormal(1, dim, 0.0, 0.5, &rng);
  }
  if (with_herb_bipar) {
    ckpt.has_herb_bipar = true;
    ckpt.herb_bipar =
        tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 0.5, &rng);
  }
  return ckpt;
}

// --------------------------------------------------------------------------
// Canonicalization
// --------------------------------------------------------------------------

TEST(CanonicalizeTest, SortsAndDedups) {
  auto q = Canonicalize({3, 1, 3, 7, 1}, 10);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->symptom_ids, (std::vector<int>{1, 3, 7}));
}

TEST(CanonicalizeTest, EquivalentQueriesShareKey) {
  auto a = Canonicalize({3, 1, 3}, 10);
  auto b = Canonicalize({1, 3}, 10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->symptom_ids, b->symptom_ids);
  EXPECT_EQ(a->key, b->key);
}

TEST(CanonicalizeTest, RejectsEmptyAndOutOfRange) {
  EXPECT_EQ(Canonicalize({}, 10).status().code(), smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({-1}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({10}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_TRUE(Canonicalize({9}, 10).ok());
}

TEST(CanonicalizeTest, EdgeCaseInputs) {
  // Duplicates in any order collapse to one canonical set and one key.
  auto dup = Canonicalize({5, 5, 5, 5}, 10);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->symptom_ids, (std::vector<int>{5}));
  EXPECT_EQ(dup->key, Canonicalize({5}, 10)->key);
  // Empty set stays invalid regardless of vocabulary size.
  EXPECT_EQ(Canonicalize({}, 0).status().code(), smgcn::StatusCode::kInvalidArgument);
  // One out-of-range id poisons an otherwise-valid set — no partial accept.
  EXPECT_EQ(Canonicalize({1, 3, 10, 5}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({1, 3, -2, 5}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(CanonicalizeTest, KeysSeparateDistinctSets) {
  // Prefixes, permut-equivalent sets and near misses must hash apart.
  std::set<std::uint64_t> keys;
  std::vector<std::vector<int>> sets = {
      {1}, {1, 3}, {1, 3, 5}, {3, 5}, {1, 5}, {2, 3}, {0}, {5}};
  for (const auto& s : sets) keys.insert(Canonicalize(s, 10)->key);
  EXPECT_EQ(keys.size(), sets.size());
}

TEST(CanonicalizeTest, CombineKeySeparatesSalts) {
  const std::uint64_t key = Canonicalize({1, 2}, 10)->key;
  EXPECT_NE(CombineKey(key, 5), CombineKey(key, 10));
  EXPECT_NE(CombineKey(key, 5), key);
}

// --------------------------------------------------------------------------
// EmbeddingStore
// --------------------------------------------------------------------------

TEST(EmbeddingStoreTest, BuildRejectsInvalidCheckpoint) {
  core::InferenceCheckpoint broken = MakeCheckpoint();
  broken.si_weight = tensor::Matrix(3, 3, 0.0);  // wrong shape vs dim=8
  EXPECT_FALSE(EmbeddingStore::Build(std::move(broken)).ok());
}

TEST(EmbeddingStoreTest, ExposesCheckpointShape) {
  auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_symptoms(), 24u);
  EXPECT_EQ(store->num_herbs(), 40u);
  EXPECT_EQ(store->dim(), 8u);
  EXPECT_TRUE(store->has_si_mlp());
  EXPECT_EQ(store->model_name(), "test-ckpt");
}

// The acceptance bar: every row of a batched score matrix must be
// bit-identical to scoring that query alone through the original
// CheckpointRecommender path.
TEST(EmbeddingStoreTest, BatchedScoresBitIdenticalToPerQueryScore) {
  for (bool with_mlp : {true, false}) {
    core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, with_mlp);
    auto reference = core::CheckpointRecommender::FromCheckpoint(ckpt);
    ASSERT_TRUE(reference.ok());
    auto store = EmbeddingStore::Build(std::move(ckpt));
    ASSERT_TRUE(store.ok());

    std::vector<std::vector<int>> raw_queries = {
        {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}};
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : raw_queries) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    ASSERT_EQ(scores.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto expected = reference->Score(batch[i].symptom_ids);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(scores[i].size(), store->num_herbs());
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        // EXPECT_EQ, not NEAR: rows must match bit for bit.
        EXPECT_EQ(scores[i][h], (*expected)[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, SingleQueryRowMatchesBatchRows) {
  auto store = EmbeddingStore::Build(MakeCheckpoint());
  ASSERT_TRUE(store.ok());
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, store->num_symptoms());
  const std::vector<double> one = ScoreRow(*store, q);
  const auto batch = ScoreRows(*store, {q, q});
  for (std::size_t h = 0; h < store->num_herbs(); ++h) {
    EXPECT_EQ(one[h], batch[0][h]);
    EXPECT_EQ(one[h], batch[1][h]);
  }
}

TEST(EmbeddingStoreTest, Float32BuildHalvesPayloadAndTracksReference) {
  core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, true);
  auto f64 = EmbeddingStore::Build(ckpt);
  auto f32 = EmbeddingStore::Build(std::move(ckpt), tensor::Precision::kFloat32);
  ASSERT_TRUE(f64.ok());
  ASSERT_TRUE(f32.ok());
  EXPECT_EQ(f64->precision(), tensor::Precision::kFloat64);
  EXPECT_EQ(f32->precision(), tensor::Precision::kFloat32);
  EXPECT_EQ(f32->payload_bytes() * 2, f64->payload_bytes());
  EXPECT_EQ(f32->num_herbs(), f64->num_herbs());

  // f32 scores track the f64 reference to single-precision accuracy; the
  // strict ranking guarantees live in kernels_test's parity suite.
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, f64->num_symptoms());
  const std::vector<double> ref = ScoreRow(*f64, q);
  const std::vector<double> got = ScoreRow(*f32, q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t h = 0; h < ref.size(); ++h) {
    EXPECT_NEAR(got[h], ref[h], 1e-4) << "herb " << h;
  }
}

TEST(EmbeddingStoreTest, Float32BatchRowsMatchSingleQueryRuns) {
  // The row-independence contract holds at f32 too: batched rows are
  // bit-identical to single-query runs within one backend.
  for (bool with_mlp : {true, false}) {
    auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8, with_mlp),
                                       tensor::Precision::kFloat32);
    ASSERT_TRUE(store.ok());
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : std::vector<std::vector<int>>{
             {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}}) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> one = ScoreRow(*store, batch[i]);
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        EXPECT_EQ(scores[i][h], one[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, Int8BuildShrinksPayloadAndTracksReference) {
  // Embedding payload drops 8x (one int8 per f64 element plus one f32 scale
  // per row); the f32 SI-MLP copy keeps the total nearer 1/5 at this small
  // shape and approaches 1/8 as the catalog grows.
  core::InferenceCheckpoint ckpt = MakeCheckpoint(64, 256, 32, true);
  auto f64 = EmbeddingStore::Build(ckpt);
  auto s8 = EmbeddingStore::Build(std::move(ckpt), tensor::Precision::kInt8);
  ASSERT_TRUE(f64.ok());
  ASSERT_TRUE(s8.ok());
  EXPECT_EQ(s8->precision(), tensor::Precision::kInt8);
  EXPECT_EQ(s8->num_herbs(), f64->num_herbs());
  EXPECT_LT(s8->payload_bytes() * 5, f64->payload_bytes());

  core::InferenceCheckpoint no_mlp = MakeCheckpoint(64, 256, 32, false);
  auto f64_plain = EmbeddingStore::Build(no_mlp);
  auto s8_plain =
      EmbeddingStore::Build(std::move(no_mlp), tensor::Precision::kInt8);
  ASSERT_TRUE(f64_plain.ok());
  ASSERT_TRUE(s8_plain.ok());
  EXPECT_LT(s8_plain->payload_bytes() * 6, f64_plain->payload_bytes());

  // Quantized scores track the f64 reference to 8-bit accuracy — a few
  // percent of the catalog's score magnitude (two quantized operands, each
  // within 1/254 of its row absmax). The strict ranking guarantees live in
  // kernels_test's int8 parity suite.
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, f64->num_symptoms());
  const std::vector<double> ref = ScoreRow(*f64, q);
  const std::vector<double> got = ScoreRow(*s8, q);
  ASSERT_EQ(got.size(), ref.size());
  double magnitude = 0.0;
  for (const double r : ref) magnitude = std::max(magnitude, std::abs(r));
  for (std::size_t h = 0; h < ref.size(); ++h) {
    EXPECT_NEAR(got[h], ref[h], 0.05 * magnitude) << "herb " << h;
  }
}

TEST(EmbeddingStoreTest, Int8BatchRowsMatchSingleQueryRuns) {
  // Same row-independence contract as f64/f32: within one backend, batched
  // int8 rows are bit-identical to single-query runs (with and without the
  // SI-MLP stage).
  for (bool with_mlp : {true, false}) {
    auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8, with_mlp),
                                       tensor::Precision::kInt8);
    ASSERT_TRUE(store.ok());
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : std::vector<std::vector<int>>{
             {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}}) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> one = ScoreRow(*store, batch[i]);
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        EXPECT_EQ(scores[i][h], one[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, Int8BuildFromArtifactServesStoredIntegers) {
  // BuildFromArtifact must serve the artifact's quantized payload verbatim:
  // scores from the artifact-backed store match a store built by
  // re-quantizing the dequantized checkpoint (bit for bit, because
  // dequantize -> requantize reproduces the stored integers exactly).
  core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, true);
  const std::string path = testing::TempDir() + "/smgcn_store8.smga";
  ASSERT_TRUE(
      core::SaveArtifact(ckpt, "v1", path, tensor::Precision::kInt8).ok());
  auto artifact = core::MappedArtifact::Open(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto from_artifact = EmbeddingStore::BuildFromArtifact(*artifact);
  ASSERT_TRUE(from_artifact.ok()) << from_artifact.status();
  EXPECT_EQ(from_artifact->precision(), tensor::Precision::kInt8);

  auto restored = artifact->ToCheckpoint();
  ASSERT_TRUE(restored.ok());
  auto rebuilt =
      EmbeddingStore::Build(std::move(*restored), tensor::Precision::kInt8);
  ASSERT_TRUE(rebuilt.ok());

  const CanonicalQuery q = *Canonicalize({2, 7, 11}, 24);
  const std::vector<double> a = ScoreRow(*from_artifact, q);
  const std::vector<double> b = ScoreRow(*rebuilt, q);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) EXPECT_EQ(a[h], b[h]);
}

// --------------------------------------------------------------------------
// Cache
// --------------------------------------------------------------------------

TEST(CacheTest, MissThenHit) {
  ShardedTopKCache cache(16, 4);
  const std::vector<int> ids{1, 3};
  std::vector<std::size_t> out;
  EXPECT_FALSE(cache.Lookup(42, ids, 5, &out));
  cache.Insert(42, ids, 5, {7, 8, 9});
  ASSERT_TRUE(cache.Lookup(42, ids, 5, &out));
  EXPECT_EQ(out, (std::vector<std::size_t>{7, 8, 9}));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CacheTest, DifferentKIsAMiss) {
  ShardedTopKCache cache(16, 1);
  const std::vector<int> ids{1, 3};
  cache.Insert(42, ids, 5, {7, 8});
  std::vector<std::size_t> out;
  EXPECT_FALSE(cache.Lookup(42, ids, 10, &out));
}

TEST(CacheTest, HashCollisionVerifiedByIds) {
  ShardedTopKCache cache(16, 1);
  cache.Insert(42, {1, 3}, 5, {7});
  std::vector<std::size_t> out;
  // Same key, different canonical ids: must not serve the other query's herbs.
  EXPECT_FALSE(cache.Lookup(42, {2, 4}, 5, &out));
}

TEST(CacheTest, EvictsLeastRecentlyUsed) {
  ShardedTopKCache cache(2, 1);  // two entries, one shard
  cache.Insert(1, {1}, 5, {10});
  cache.Insert(2, {2}, 5, {20});
  std::vector<std::size_t> out;
  ASSERT_TRUE(cache.Lookup(1, {1}, 5, &out));  // refresh key 1
  cache.Insert(3, {3}, 5, {30});               // evicts key 2 (LRU)
  EXPECT_TRUE(cache.Lookup(1, {1}, 5, &out));
  EXPECT_FALSE(cache.Lookup(2, {2}, 5, &out));
  EXPECT_TRUE(cache.Lookup(3, {3}, 5, &out));
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(CacheTest, ClearDropsEntriesKeepsCounters) {
  ShardedTopKCache cache(8, 2);
  cache.Insert(1, {1}, 5, {10});
  std::vector<std::size_t> out;
  ASSERT_TRUE(cache.Lookup(1, {1}, 5, &out));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, {1}, 5, &out));
  EXPECT_EQ(cache.Stats().size, 0u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(CacheTest, SizeGaugeTracksEntriesWithoutStats) {
  // /metrics reads the registry gauge, never Stats(): the gauge must follow
  // every insert, eviction and Clear on its own.
  obs::Registry registry;
  ShardedTopKCache cache(2, 1, &registry, "cache.");
  const obs::Gauge* size = registry.GetGauge("cache.size");
  cache.Insert(1, {1}, 5, {10});
  cache.Insert(2, {2}, 5, {20});
  EXPECT_EQ(size->value(), 2.0);
  cache.Insert(2, {2}, 5, {21});  // overwrite: no new entry
  EXPECT_EQ(size->value(), 2.0);
  cache.Insert(3, {3}, 5, {30});  // evicts one: occupancy stays at capacity
  EXPECT_EQ(size->value(), 2.0);
  cache.Clear();
  EXPECT_EQ(size->value(), 0.0);
}

// --------------------------------------------------------------------------
// ServingEngine
// --------------------------------------------------------------------------

std::unique_ptr<ServingEngine> MakeEngine(ServingEngineOptions options = {}) {
  auto engine = ServingEngine::Create(MakeCheckpoint(), options);
  SMGCN_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// One of the engine's registry counters, e.g. "batches" or "cache.hits".
std::uint64_t EngineCounter(const ServingEngine& engine,
                            const std::string& name) {
  return obs::Registry::Global()
      .GetCounter(engine.obs_prefix() + name)
      ->value();
}

// The top-k herb ids a synchronous ranked request gets back.
std::vector<std::size_t> TopK(const ServingEngine& engine,
                              std::vector<int> symptoms, std::size_t k) {
  const Response response = engine.Handle(MakeRequest(std::move(symptoms), k));
  EXPECT_TRUE(response.ok()) << response.message;
  return response.herb_ids;
}

TEST(ServingEngineTest, CreateRejectsBadOptions) {
  ServingEngineOptions options;
  options.max_batch_size = 0;
  EXPECT_EQ(ServingEngine::Create(MakeCheckpoint(), options).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, DenseHandleBatchBitIdenticalToCheckpointRecommender) {
  core::InferenceCheckpoint ckpt = MakeCheckpoint();
  auto reference = core::CheckpointRecommender::FromCheckpoint(ckpt);
  ASSERT_TRUE(reference.ok());
  auto engine = ServingEngine::Create(std::move(ckpt));
  ASSERT_TRUE(engine.ok());

  const std::vector<std::vector<int>> queries = {
      {4, 2, 0}, {11}, {1, 3, 5, 7, 9}, {20, 22}};
  std::vector<Request> requests;
  for (const auto& query : queries) requests.push_back(MakeRequest(query, 0));
  const std::vector<Response> responses = (*engine)->HandleBatch(requests);
  ASSERT_EQ(responses.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
    EXPECT_EQ(responses[i].model, "test-ckpt");
    EXPECT_EQ(responses[i].version, "v1");
    EXPECT_TRUE(responses[i].herb_ids.empty());
    const auto canonical = Canonicalize(queries[i], 24);
    auto expected = reference->Score(canonical->symptom_ids);
    ASSERT_TRUE(expected.ok());
    // Bit-identical, not approximately equal: both paths run the same
    // fixed-order arithmetic.
    EXPECT_EQ(responses[i].scores, *expected) << "query " << i;
  }
}

TEST(ServingEngineTest, HandleMatchesHandleBatchAndIsCanonical) {
  auto engine = MakeEngine();
  // {3,1,3} and {1,3} are the same query; both paths must agree.
  const std::vector<std::size_t> a = TopK(*engine, {3, 1, 3}, 10);
  EXPECT_EQ(TopK(*engine, {1, 3}, 10), a);
  const std::vector<Response> batch = engine->HandleBatch(
      {MakeRequest({3, 1, 3}, 10), MakeRequest({1, 3}, 10)});
  EXPECT_EQ(batch[0].herb_ids, a);
  EXPECT_EQ(batch[1].herb_ids, a);
  EXPECT_TRUE(batch[0].scores.empty());  // ranked mode carries no scores
}

TEST(ServingEngineTest, RepeatQueriesHitCache) {
  auto engine = MakeEngine();
  ASSERT_FALSE(TopK(*engine, {1, 2, 3}, 10).empty());
  ASSERT_FALSE(TopK(*engine, {3, 2, 1, 1}, 10).empty());  // same canonical set
  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 1u);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 1u);
  // The second query must not have triggered another GEMM.
  EXPECT_EQ(EngineCounter(*engine, "batches"), 1u);
  // The serving counters /metrics and the benchmarks read.
  obs::Registry& registry = obs::Registry::Global();
  const std::string& prefix = engine->obs_prefix();
  EXPECT_EQ(EngineCounter(*engine, "queries"), 2u);
  EXPECT_EQ(EngineCounter(*engine, "batched_queries"), 1u);
  EXPECT_EQ(registry.GetGauge(prefix + "max_batch_size")->value(), 1.0);
  EXPECT_EQ(registry.GetHistogram(prefix + "latency.seconds")->count(), 2u);
  EXPECT_EQ(registry.GetGauge(prefix + "cache.size")->value(), 1.0);
}

TEST(ServingEngineTest, TopKBeyondCatalogClampsAndSharesOneCacheEntry) {
  // The checkpoint has 40 herbs. Any k >= 40 means "rank every herb": the
  // result must be all 40 ids (no error, no over-read), and different
  // over-catalog ks must unify into ONE cache entry. Before the clamp, each
  // k cached separately (the cache requires an exact k match), so the
  // second request below was a miss and a fresh GEMM.
  auto engine = MakeEngine();
  const std::size_t num_herbs = engine->Snapshot()->store.num_herbs();
  ASSERT_EQ(num_herbs, 40u);

  const std::vector<std::size_t> exact = TopK(*engine, {1, 2, 3}, num_herbs);
  ASSERT_EQ(exact.size(), num_herbs);
  std::set<std::size_t> distinct(exact.begin(), exact.end());
  EXPECT_EQ(distinct.size(), num_herbs);  // every herb exactly once

  EXPECT_EQ(TopK(*engine, {1, 2, 3}, num_herbs + 1), exact);
  EXPECT_EQ(TopK(*engine, {1, 2, 3}, 1000000), exact);

  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 1u);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 2u);
  EXPECT_EQ(EngineCounter(*engine, "batches"), 1u);  // one GEMM, three ks
}

TEST(ServingEngineTest, SubmitClampsTopKBeyondCatalog) {
  auto engine = MakeEngine();
  const std::size_t num_herbs = engine->Snapshot()->store.num_herbs();
  const std::vector<std::size_t> expected = TopK(*engine, {2, 4}, num_herbs);
  const Response result =
      engine->SubmitRequest(MakeRequest({2, 4}, num_herbs + 25)).get();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.herb_ids, expected);
}

TEST(ServingEngineTest, Float32PrecisionOptionServes) {
  ServingEngineOptions options;
  options.precision = tensor::Precision::kFloat32;
  auto f32_engine = MakeEngine(options);
  EXPECT_EQ(f32_engine->Snapshot()->store.precision(),
            tensor::Precision::kFloat32);
  auto f64_engine = MakeEngine();

  const std::vector<std::size_t> a = TopK(*f32_engine, {1, 2, 3}, 10);
  const std::vector<std::size_t> b = TopK(*f64_engine, {1, 2, 3}, 10);
  ASSERT_EQ(a.size(), 10u);
  // Narrowing can swap near-tied neighbours; membership should still be
  // near-total (the strict thresholds live in kernels_test).
  std::set<std::size_t> a_set(a.begin(), a.end());
  std::size_t agree = 0;
  for (std::size_t id : b) agree += a_set.count(id);
  EXPECT_GE(agree, 9u);

  // Publish through the engine keeps the configured precision.
  ASSERT_TRUE(f32_engine->Publish(MakeCheckpoint(), "v2").ok());
  EXPECT_EQ(f32_engine->Snapshot()->store.precision(),
            tensor::Precision::kFloat32);
}

TEST(ServingEngineTest, EnginesGetDistinctObsScopes) {
  auto a = MakeEngine();
  auto b = MakeEngine();
  EXPECT_NE(a->obs_prefix(), b->obs_prefix());
  // One engine's traffic must not leak into the other's instruments.
  ASSERT_FALSE(TopK(*a, {1, 2}, 5).empty());
  EXPECT_EQ(EngineCounter(*a, "queries"), 1u);
  EXPECT_EQ(EngineCounter(*b, "queries"), 0u);
}

TEST(ServingEngineTest, CacheDisabledStillServes) {
  ServingEngineOptions options;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);
  const std::vector<std::size_t> a = TopK(*engine, {1, 2}, 5);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(TopK(*engine, {1, 2}, 5), a);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 0u);
  EXPECT_EQ(EngineCounter(*engine, "batches"), 2u);
}

TEST(ServingEngineTest, SubmitRequestMatchesHandle) {
  auto engine = MakeEngine();
  const std::vector<std::size_t> expected = TopK(*engine, {2, 4, 6}, 8);
  ASSERT_FALSE(expected.empty());
  // Same canonical query.
  const Response result =
      engine->SubmitRequest(MakeRequest({6, 4, 2, 2}, 8)).get();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.herb_ids, expected);
  EXPECT_EQ(result.version, "v1");
}

TEST(ServingEngineTest, SubmitRejectsMalformedImmediately) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({}, 5)).get().status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({-3}, 5)).get().status,
            StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, ConcurrentSubmitsFromManyThreads) {
  ServingEngineOptions options;
  options.max_batch_size = 16;
  options.max_wait_ms = 0.5;
  auto engine = MakeEngine(options);

  // Ground truth computed via the synchronous path first.
  std::vector<std::vector<int>> queries;
  std::vector<std::vector<std::size_t>> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back({i % 24, (i * 7 + 1) % 24, (i * 3 + 2) % 24});
    expected.push_back(TopK(*engine, queries.back(), 10));
    ASSERT_FALSE(expected.back().empty());
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        const auto& q = queries[(t * kPerThread + i) % queries.size()];
        futures.push_back(engine->SubmitRequest(MakeRequest(q, 10)));
      }
      for (int i = 0; i < kPerThread; ++i) {
        const Response result = futures[i].get();
        const auto& want = expected[(t * kPerThread + i) % expected.size()];
        if (!result.ok() || result.herb_ids != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(EngineCounter(*engine, "queries"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Repeats must hit the cache.
  EXPECT_GT(EngineCounter(*engine, "cache.hits"), 0u);
}

TEST(ServingEngineTest, HandleBatchHammeredUnderParallelKernels) {
  // Cache + counter audit under the multi-threaded kernels: a deliberately
  // tiny sharded cache (constant evictions) is hammered by sync dense and
  // ranked HandleBatch and async SubmitRequest from several threads while
  // the tensor kernels and the engine's pool fan out across 4 threads.
  ScopedNumThreads threads_scope(4);
  ServingEngineOptions options;
  options.max_batch_size = 8;
  options.max_wait_ms = 0.1;
  options.cache_capacity = 6;  // forces eviction churn
  options.cache_shards = 2;
  auto engine = MakeEngine(options);

  std::vector<std::vector<int>> queries;
  std::vector<std::vector<double>> expected_scores;
  std::vector<std::vector<std::size_t>> expected_topk;
  for (int i = 0; i < 16; ++i) {
    queries.push_back({i % 24, (i * 5 + 3) % 24});
    const Response scores = engine->Handle(MakeRequest(queries.back(), 0));
    ASSERT_TRUE(scores.ok()) << scores.message;
    expected_scores.push_back(scores.scores);
    expected_topk.push_back(TopK(*engine, queries.back(), 6));
    ASSERT_FALSE(expected_topk.back().empty());
  }

  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t base = static_cast<std::size_t>(t * kIters + i);
        const std::vector<std::vector<int>> batch = {
            queries[base % queries.size()], queries[(base + 5) % queries.size()],
            queries[(base + 11) % queries.size()]};
        if (i % 3 == 2) {
          const Response top =
              engine->SubmitRequest(MakeRequest(batch[0], 6)).get();
          if (!top.ok() ||
              top.herb_ids != expected_topk[base % queries.size()]) {
            mismatches.fetch_add(1);
          }
          continue;
        }
        // i % 3 == 0: dense scores; i % 3 == 1: ranked top-k.
        const std::size_t top_k = i % 3 == 0 ? 0 : 6;
        std::vector<Request> requests;
        for (const auto& q : batch) requests.push_back(MakeRequest(q, top_k));
        const std::vector<Response> responses = engine->HandleBatch(requests);
        const bool match =
            responses[0].ok() &&
            (top_k == 0
                 ? responses[0].scores == expected_scores[base % queries.size()]
                 : responses[0].herb_ids ==
                       expected_topk[base % queries.size()]);
        if (!match) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Counter coherence across shards: every lookup is either a hit or a miss,
  // occupancy never exceeds the budget, and churn actually happened.
  obs::Registry& registry = obs::Registry::Global();
  const std::string& prefix = engine->obs_prefix();
  EXPECT_GT(EngineCounter(*engine, "cache.misses"), 0u);
  EXPECT_GT(EngineCounter(*engine, "cache.evictions"), 0u);
  EXPECT_LE(registry.GetGauge(prefix + "cache.size")->value(),
            registry.GetGauge(prefix + "cache.capacity")->value());
  EXPECT_LE(EngineCounter(*engine, "cache.evictions"),
            EngineCounter(*engine, "cache.misses"));
  EXPECT_GE(EngineCounter(*engine, "queries"),
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(ServingEngineTest, ShutdownDrainsQueuedQueries) {
  auto engine = MakeEngine();
  // Every slot busy: the queries stay queued until the drain flushes them.
  ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({i % 24}, 5)));
  }
  engine->Shutdown();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // After shutdown, new queries fail fast.
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({1}, 5)).get().status,
            StatusCode::kUnavailable);
}

TEST(ServingEngineTest, DestructorDrainsImplicitly) {
  std::future<Response> future;
  {
    auto engine = MakeEngine();
    future = engine->SubmitRequest(MakeRequest({1, 2}, 5));
  }  // ~ServingEngine must resolve the future
  EXPECT_TRUE(future.get().ok());
}

// --------------------------------------------------------------------------
// Dispatch rule: coalesce only behind a running batch
// --------------------------------------------------------------------------

TEST(DispatchRuleTest, LoneRequestOnIdleEngineSkipsTheWindow) {
  ServingEngineOptions options;
  options.max_wait_ms = 5000.0;  // an idle engine must never wait this out
  auto engine = MakeEngine(options);
  auto future = engine->SubmitRequest(MakeRequest({1, 2}, 5));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok());
}

TEST(DispatchRuleTest, SubmitsCoalesceBehindARunningBatch) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.max_wait_ms = 5000.0;
  options.cache_capacity = 0;  // force every query through the GEMM
  auto engine = MakeEngine(options);
  ServingEngineTestPeer running(engine.get(), 1);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::future<Response>> futures(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int n = t * kPerThread + i;
        futures[n] =
            engine->SubmitRequest(MakeRequest({n % 24, (n + 1) % 24}, 5));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // The running batch finishing is what cuts the held one: all 32 queries
  // share a single GEMM.
  running.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  auto& registry = obs::Registry::Global();
  const std::string& prefix = engine->obs_prefix();
  EXPECT_EQ(registry.GetCounter(prefix + "batches")->value(), 1u);
  EXPECT_EQ(registry.GetCounter(prefix + "batched_queries")->value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(DispatchRuleTest, DeadlineFlushCutsAHeldBatch) {
  ServingEngineOptions options;
  options.max_wait_ms = 5000.0;  // the held batch would wait this long...
  auto engine = MakeEngine(options);
  ServingEngineTestPeer running(engine.get(), 1);
  Request request = MakeRequest({1, 2}, 5);
  request.deadline_ms = 1000.0;  // ...but flush_by (800 ms) cuts it first
  auto future = engine->SubmitRequest(std::move(request));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(3)),
            std::future_status::ready);
  const Response response = future.get();
  EXPECT_TRUE(response.ok()) << response.message;
}

// --------------------------------------------------------------------------
// Slow-query log
// --------------------------------------------------------------------------

TEST(SlowQueryLogTest, DisabledByDefault) {
  auto engine = MakeEngine();
  EXPECT_FALSE(engine->slow_query_log().enabled());
  ASSERT_FALSE(TopK(*engine, {1, 2, 3}, 5).empty());
  EXPECT_EQ(engine->slow_query_log().total_recorded(), 0u);
  EXPECT_TRUE(engine->slow_query_log().Snapshot().empty());
}

TEST(SlowQueryLogTest, NegativeThresholdIsRejected) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = -1.0;
  EXPECT_EQ(ServingEngine::Create(MakeCheckpoint(), options).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(SlowQueryLogTest, SyncQueriesRecordStageBreakdown) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;  // everything is "slow"
  options.cache_capacity = 4;
  options.cache_shards = 1;  // both queries fit whatever the salt hashes to
  auto engine = MakeEngine(options);
  ASSERT_TRUE(engine->slow_query_log().enabled());
  for (const Response& response : engine->HandleBatch(
           {MakeRequest({1, 2}, 7), MakeRequest({3, 4, 5}, 7)})) {
    ASSERT_TRUE(response.ok()) << response.message;
  }
  ASSERT_FALSE(TopK(*engine, {1, 2}, 7).empty());  // cache hit

  const auto records = engine->slow_query_log().Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(engine->slow_query_log().total_recorded(), 3u);
  for (const SlowQueryRecord& record : records) {
    EXPECT_EQ(record.k, 7u);
    EXPECT_GT(record.total_seconds, 0.0);
    EXPECT_GE(record.batch_size, 1u);
    // Sync path: the query never sat in the async queue.
    EXPECT_EQ(record.queue_seconds, 0.0);
    EXPECT_EQ(record.coalesce_seconds, 0.0);
    EXPECT_FALSE(record.ToString().empty());
  }
  EXPECT_FALSE(records[0].cache_hit);
  EXPECT_TRUE(records[2].cache_hit);
  EXPECT_GT(records[0].gemm_seconds + records[0].topk_seconds, 0.0);
  EXPECT_EQ(records[2].gemm_seconds, 0.0);  // hits skip the GEMM
  EXPECT_NE(engine->slow_query_log().RenderMarkdown().find("| total |"),
            std::string::npos);
}

TEST(SlowQueryLogTest, AsyncQueriesRecordQueueAndBatch) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;
  options.cache_capacity = 0;  // force every query through the GEMM
  options.max_batch_size = 64;
  options.max_wait_ms = 5000.0;
  auto engine = MakeEngine(options);
  // Submitted behind a (held) running batch, the queries coalesce.
  ServingEngineTestPeer running(engine.get(), 1);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        engine->SubmitRequest(MakeRequest({i % 24, (i + 3) % 24}, 5)));
  }
  running.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  engine->Shutdown();

  const auto records = engine->slow_query_log().Snapshot();
  ASSERT_EQ(records.size(), 16u);
  bool saw_coalesced_batch = false;
  for (const SlowQueryRecord& record : records) {
    EXPECT_GE(record.queue_seconds, 0.0);
    EXPECT_GE(record.coalesce_seconds, 0.0);
    EXPECT_GE(record.total_seconds,
              record.gemm_seconds + record.topk_seconds);
    if (record.batch_size > 1) saw_coalesced_batch = true;
  }
  EXPECT_TRUE(saw_coalesced_batch);
}

TEST(SlowQueryLogTest, EvictsOldestBeyondCapacity) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;
  options.slow_query_log_capacity = 4;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_FALSE(TopK(*engine, {i % 24, (i + 1) % 24}, 5).empty());
  }
  EXPECT_EQ(engine->slow_query_log().Snapshot().size(), 4u);
  EXPECT_EQ(engine->slow_query_log().total_recorded(), 10u);
}

// --------------------------------------------------------------------------
// Hot swap (ServingEngine::Publish)
// --------------------------------------------------------------------------

TEST(ServingEngineSwapTest, PublishSwapsScoresAndVersion) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->active_version(), "v1");
  const Response before = engine->Handle(MakeRequest({1, 2}, 0));
  ASSERT_TRUE(before.ok()) << before.message;

  // A different model: same shapes, shifted embeddings.
  core::InferenceCheckpoint next = MakeCheckpoint();
  for (std::size_t r = 0; r < next.herb_embeddings.rows(); ++r) {
    for (std::size_t c = 0; c < next.herb_embeddings.cols(); ++c) {
      next.herb_embeddings(r, c) += 1.0;
    }
  }
  ASSERT_TRUE(engine->Publish(std::move(next), "v2").ok());
  EXPECT_EQ(engine->active_version(), "v2");

  const Response after = engine->Handle(MakeRequest({1, 2}, 0));
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_NE(before.scores, after.scores);
  EXPECT_EQ(engine->Snapshot()->version, "v2");
}

TEST(ServingEngineSwapTest, PublishRejectsBadInput) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->Publish(MakeCheckpoint(), "").code(),
            smgcn::StatusCode::kInvalidArgument);
  core::InferenceCheckpoint bad;  // empty: fails validation
  EXPECT_FALSE(engine->Publish(std::move(bad), "v2").ok());
  // Failed publishes leave the active snapshot untouched.
  EXPECT_EQ(engine->active_version(), "v1");
}

TEST(ServingEngineSwapTest, CacheEntriesAreScopedToTheirPublish) {
  auto engine = MakeEngine();
  ASSERT_FALSE(TopK(*engine, {1, 2, 3}, 10).empty());
  ASSERT_TRUE(engine->Publish(MakeCheckpoint(12, 40, 8), "v2").ok());
  // Same query, new snapshot: the v1 cache entry must not answer it.
  ASSERT_FALSE(TopK(*engine, {1, 2, 3}, 10).empty());
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 0u);
  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 2u);
}

TEST(ServingEngineSwapTest, PublishCountsInRegistry) {
  auto engine = MakeEngine();
  const std::string counter = engine->obs_prefix() + "publishes";
  auto* publishes = obs::Registry::Global().GetCounter(counter);
  EXPECT_EQ(publishes->value(), 0u);
  ASSERT_TRUE(engine->Publish(MakeCheckpoint(), "v2").ok());
  ASSERT_TRUE(engine->Publish(MakeCheckpoint(), "v3").ok());
  EXPECT_EQ(publishes->value(), 2u);
}

TEST(ServingEngineSwapTest, InFlightSubmitsFinishOnTheirSnapshot) {
  // Queries submitted before a swap must be answered by the snapshot they
  // were accepted under, even when the batcher executes them after the
  // publish landed.
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);

  const std::vector<std::size_t> expected = TopK(*engine, {2, 4}, 5);
  ASSERT_FALSE(expected.empty());

  std::vector<std::future<Response>> futures;
  {
    // Every slot busy: the queries are still queued when the swap lands.
    ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(engine->SubmitRequest(MakeRequest({2, 4}, 5)));
    }
    ASSERT_TRUE(engine->Publish(MakeCheckpoint(12, 40, 8), "v2").ok());
  }
  for (auto& f : futures) {
    const Response result = f.get();
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.herb_ids, expected);
  }
  // New queries see the new model's herb count (40 stays, but ids shrink
  // to the 12-symptom vocabulary: symptom 20 is now out of range).
  EXPECT_EQ(engine->Handle(MakeRequest({20}, 5)).status,
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Serving status vocabulary (serve::StatusCode) and the mapping table
// --------------------------------------------------------------------------

TEST(ServeStatusTest, WireBytesArePinned) {
  // The numeric values ARE the wire protocol; this test is the tripwire
  // against reordering the enum.
  EXPECT_EQ(ToWireByte(StatusCode::kOk), 0);
  EXPECT_EQ(ToWireByte(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(ToWireByte(StatusCode::kDeadlineExceeded), 2);
  EXPECT_EQ(ToWireByte(StatusCode::kShedding), 3);
  EXPECT_EQ(ToWireByte(StatusCode::kUnavailable), 4);
  EXPECT_EQ(kMaxWireStatusByte, 4);
  EXPECT_FALSE(FromWireByte(5).ok());
}

TEST(ServeStatusTest, NamesRoundTrip) {
  for (std::uint8_t b = 0; b <= kMaxWireStatusByte; ++b) {
    const auto code = static_cast<StatusCode>(b);
    auto back = StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, code);
    auto byte_back = FromWireByte(ToWireByte(code));
    ASSERT_TRUE(byte_back.ok());
    EXPECT_EQ(*byte_back, code);
  }
  EXPECT_FALSE(StatusCodeFromName("NOT_A_STATUS").ok());
}

TEST(ServeStatusTest, EveryInternalCodeMapsToOneServingStatus) {
  // The mapping table is total: every internal code lands on exactly one
  // serving status.
  const smgcn::StatusCode internal_codes[] = {
      smgcn::StatusCode::kOk,
      smgcn::StatusCode::kInvalidArgument,
      smgcn::StatusCode::kNotFound,
      smgcn::StatusCode::kAlreadyExists,
      smgcn::StatusCode::kOutOfRange,
      smgcn::StatusCode::kFailedPrecondition,
      smgcn::StatusCode::kIoError,
      smgcn::StatusCode::kNotImplemented,
      smgcn::StatusCode::kInternal,
      smgcn::StatusCode::kResourceExhausted,
      smgcn::StatusCode::kDeadlineExceeded,
      smgcn::StatusCode::kUnavailable,
  };
  for (const auto internal : internal_codes) {
    EXPECT_LE(ToWireByte(FromInternalCode(internal)), kMaxWireStatusByte)
        << StatusCodeToString(internal);
  }
  // Spot-check the semantically load-bearing rows.
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kOk), StatusCode::kOk);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kResourceExhausted),
            StatusCode::kShedding);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kDeadlineExceeded),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kFailedPrecondition),
            StatusCode::kUnavailable);
}

TEST(ServeStatusTest, HttpStatusMapping) {
  EXPECT_EQ(HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(HttpStatusFor(StatusCode::kShedding), 429);
  EXPECT_EQ(HttpStatusFor(StatusCode::kUnavailable), 503);
}

// --------------------------------------------------------------------------
// The Request/Response surface (Handle / HandleBatch / SubmitRequest)
// --------------------------------------------------------------------------

TEST(RequestSurfaceTest, InvalidRequestsGetPerRequestErrors) {
  auto engine = MakeEngine();
  std::vector<Request> requests(3);
  requests[0] = MakeRequest({1, 2}, 5);
  requests[1] = MakeRequest({}, 5);  // empty: invalid
  requests[2] = MakeRequest({999}, 5);  // out of range
  const auto responses = engine->HandleBatch(requests);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status, StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[2].status, StatusCode::kInvalidArgument);
  EXPECT_FALSE(responses[2].message.empty());
  // Errors are attributable: routing succeeded, so model/version are set.
  EXPECT_EQ(responses[1].model, "test-ckpt");
  EXPECT_TRUE(engine->HandleBatch({}).empty());  // empty batch is fine
}

TEST(RequestSurfaceTest, VersionPinGuardsAcrossSwaps) {
  auto engine = MakeEngine();
  Request pinned = MakeRequest({1, 2}, 5);
  pinned.version = "v1";
  EXPECT_TRUE(engine->Handle(pinned).ok());

  ASSERT_TRUE(engine->Publish(MakeCheckpoint(), "v2").ok());
  const Response stale = engine->Handle(pinned);
  EXPECT_EQ(stale.status, StatusCode::kUnavailable);
  EXPECT_NE(stale.message.find("v1"), std::string::npos);

  pinned.version = "v2";
  EXPECT_TRUE(engine->Handle(pinned).ok());

  // Async path enforces the same guard.
  pinned.version = "v1";
  EXPECT_EQ(engine->SubmitRequest(pinned).get().status,
            StatusCode::kUnavailable);

  Request wrong_model = pinned;
  wrong_model.version.clear();
  wrong_model.model = "other-model";
  EXPECT_EQ(engine->Handle(wrong_model).status, StatusCode::kUnavailable);
}

TEST(RequestSurfaceTest, AsyncRejectsDenseMode) {
  auto engine = MakeEngine();
  Request request = MakeRequest({1}, 0);
  const Response response = engine->SubmitRequest(std::move(request)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  EXPECT_NE(response.message.find("synchronous"), std::string::npos);
}

TEST(RequestSurfaceTest, AsyncRejectionsCarryIdModelAndVersion) {
  // Every async outcome is attributable: a rejection carries the request's
  // correlation id (echoed or minted) and the model/version it was bound
  // to, whichever admission or batcher check produced it.
  ServingEngineOptions options;
  options.max_queue_depth = 1;
  auto engine = MakeEngine(options);
  const auto expect_attributable = [](const Response& response,
                                      StatusCode status) {
    EXPECT_EQ(response.status, status) << response.message;
    EXPECT_FALSE(response.request_id.empty()) << response.message;
    EXPECT_EQ(response.model, "test-ckpt") << response.message;
    EXPECT_EQ(response.version, "v1") << response.message;
  };

  // Dense mode is rejected by the one admission path, so it counts as a
  // submission like every other admission rejection.
  const obs::Counter* submitted =
      obs::Registry::Global().GetCounter("serve.submitted");
  const std::uint64_t submitted_before = submitted->value();
  expect_attributable(engine->SubmitRequest(MakeRequest({1}, 0)).get(),
                      StatusCode::kInvalidArgument);
  EXPECT_EQ(submitted->value(), submitted_before + 1);

  Request pinned = MakeRequest({1, 2}, 5);
  pinned.version = "v0";
  pinned.request_id = "pin-1";
  const Response pin = engine->SubmitRequest(pinned).get();
  expect_attributable(pin, StatusCode::kUnavailable);
  EXPECT_EQ(pin.request_id, "pin-1");

  expect_attributable(engine->SubmitRequest(MakeRequest({999}, 5)).get(),
                      StatusCode::kInvalidArgument);

  Request late = MakeRequest({1, 2}, 5);
  late.deadline_ms = 1e-7;  // expired before the batcher can score it
  expect_attributable(engine->SubmitRequest(std::move(late)).get(),
                      StatusCode::kDeadlineExceeded);

  {
    // Every slot busy: the first request fills the one-deep queue and the
    // second is shed.
    ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
    auto queued = engine->SubmitRequest(MakeRequest({1, 2}, 5));
    expect_attributable(engine->SubmitRequest(MakeRequest({3, 4}, 5)).get(),
                        StatusCode::kShedding);
    busy.Release();
    EXPECT_TRUE(queued.get().ok());
  }

  engine->Shutdown();
  expect_attributable(engine->SubmitRequest(MakeRequest({1, 2}, 5)).get(),
                      StatusCode::kUnavailable);
}

TEST(RequestSurfaceTest, SyncDeadlineNeverReturnsLateOk) {
  auto engine = MakeEngine();
  Request request = MakeRequest({1, 2}, 5);
  request.deadline_ms = 1e-7;  // sub-nanosecond budget: always exceeded
  const Response response = engine->Handle(request);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.herb_ids.empty());
}

TEST(RequestSurfaceTest, AsyncDeadlineExpiredBeforeBatchingIsSwept) {
  ServingEngineOptions options;
  options.max_wait_ms = 50.0;  // would hold the batch well past the budget
  auto engine = MakeEngine(options);
  Request request = MakeRequest({1, 2}, 5);
  request.deadline_ms = 1e-7;
  const Response response = engine->SubmitRequest(std::move(request)).get();
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.herb_ids.empty());
}

TEST(RequestSurfaceTest, FullQueueShedsWithSheddingStatus) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.max_queue_depth = 2;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);

  // Every slot busy: the batcher pops nothing, so the burst backs up in the
  // admission queue and exactly 10 - max_queue_depth requests are shed.
  ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({1, 2}, 5)));
  }
  busy.Release();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    const Response response = f.get();
    if (response.ok()) {
      ++ok;
    } else {
      // Shedding, not a timeout and not a generic failure: clients must be
      // able to tell "back off" from "broken".
      ASSERT_EQ(response.status, StatusCode::kShedding) << response.message;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 8u);
}

TEST(RequestSurfaceTest, ShedRequestsCountInObsRegistry) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.max_queue_depth = 1;
  auto engine = MakeEngine(options);
  ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({1}, 3)));
  }
  busy.Release();
  for (auto& f : futures) f.get();
  const auto* shed = obs::Registry::Global().GetCounter(
      engine->obs_prefix() + "shed");
  EXPECT_EQ(shed->value(), 3u);
}

TEST(RequestSurfaceTest, ShutdownDrainAnswersQueuedRequests) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  auto engine = MakeEngine(options);
  ServingEngineTestPeer busy(engine.get(), ServingEngineTestPeer::kAllSlots);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({1, 2, 3}, 5)));
  }
  engine->Shutdown();  // drain: everything admitted is answered
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  Request late = MakeRequest({1}, 5);
  EXPECT_EQ(engine->SubmitRequest(std::move(late)).get().status,
            StatusCode::kUnavailable);
}

// --------------------------------------------------------------------------
// Score attribution (audit trail)
// --------------------------------------------------------------------------

// Asserts the two attribution identities hold bit-exactly and that the
// attribution describes exactly the served ranking.
void CheckAttributionInvariants(const Response& response,
                                const std::vector<int>& canonical_symptoms) {
  ASSERT_TRUE(response.attribution.has_value());
  const audit::QueryAttribution& attr = *response.attribution;
  EXPECT_EQ(attr.symptom_ids, canonical_symptoms);
  ASSERT_EQ(attr.herbs.size(), response.herb_ids.size());
  for (std::size_t i = 0; i < attr.herbs.size(); ++i) {
    const audit::HerbAttribution& herb = attr.herbs[i];
    EXPECT_EQ(herb.herb_id, response.herb_ids[i]);
    EXPECT_TRUE(herb.exact);
    ASSERT_EQ(herb.per_symptom.size(), canonical_symptoms.size());
    // Residual-anchored: both reconstructions land on the served double
    // exactly, at every precision.
    EXPECT_EQ(herb.bipar + herb.synergy, herb.score);
    EXPECT_EQ(audit::ReconstructPooled(herb), herb.score);
  }
}

// The acceptance-criteria parity test: one walk over all three precisions,
// 1 and 4 threads, and every serving path (sync per-query, sync batched,
// cache-hit repeat, async micro-batched). The attribution must satisfy the
// reconstruction identities everywhere and be bit-identical across paths
// and thread counts (row independence).
TEST(AttributionTest, ParityAcrossPrecisionsPathsAndThreads) {
  const std::vector<int> symptoms = {6, 2, 4, 2};     // canonical: {2,4,6}
  const std::vector<int> canonical = {2, 4, 6};
  constexpr std::size_t kTopK = 7;
  for (const tensor::Precision precision :
       {tensor::Precision::kFloat64, tensor::Precision::kFloat32,
        tensor::Precision::kInt8}) {
    // herbs[path][thread-config] collected for cross-path comparison.
    std::vector<std::vector<audit::HerbAttribution>> collected;
    for (const int threads : {1, 4}) {
      ScopedNumThreads threads_scope(threads);
      ServingEngineOptions options;
      options.precision = precision;
      auto engine = ServingEngine::Create(
          MakeCheckpoint(24, 40, 8, /*with_si_mlp=*/true,
                         /*with_herb_bipar=*/true),
          options);
      ASSERT_TRUE(engine.ok()) << engine.status();

      Request request;
      request.symptoms = symptoms;
      request.top_k = kTopK;
      request.attribution = true;

      // Path 1: sync per-query (cache miss).
      const Response sync = (*engine)->Handle(request);
      ASSERT_TRUE(sync.ok()) << sync.message;
      CheckAttributionInvariants(sync, canonical);

      // The served scores are the dense scores for the same query: the
      // attribution decomposes exactly what the ranking saw.
      const Response dense = (*engine)->Handle(MakeRequest(symptoms, 0));
      ASSERT_TRUE(dense.ok()) << dense.message;
      for (const audit::HerbAttribution& herb : sync.attribution->herbs) {
        EXPECT_EQ(herb.score, dense.scores[herb.herb_id]);
        EXPECT_TRUE(herb.has_components);
        // With components the split is informative: the bipar term is not
        // just the whole score.
        EXPECT_NE(herb.synergy, 0.0);
      }

      // Path 2: cache-hit repeat of the same query.
      const Response cached = (*engine)->Handle(request);
      ASSERT_TRUE(cached.ok());
      CheckAttributionInvariants(cached, canonical);

      // Path 3: batched alongside unrelated queries.
      std::vector<Request> batch(3);
      batch[0] = MakeRequest({1, 9}, kTopK);
      batch[1] = request;
      batch[2] = MakeRequest({0, 23, 11}, kTopK);
      const std::vector<Response> batched = (*engine)->HandleBatch(batch);
      ASSERT_TRUE(batched[1].ok());
      CheckAttributionInvariants(batched[1], canonical);
      EXPECT_FALSE(batched[0].attribution.has_value());  // not requested

      // Path 4: async micro-batched.
      Request async_request = request;
      const Response async =
          (*engine)->SubmitRequest(std::move(async_request)).get();
      ASSERT_TRUE(async.ok()) << async.message;
      CheckAttributionInvariants(async, canonical);

      collected.push_back(sync.attribution->herbs);
      collected.push_back(cached.attribution->herbs);
      collected.push_back(batched[1].attribution->herbs);
      collected.push_back(async.attribution->herbs);
    }
    // Every path at every thread count produced bit-identical terms.
    for (std::size_t p = 1; p < collected.size(); ++p) {
      ASSERT_EQ(collected[p].size(), collected[0].size());
      for (std::size_t i = 0; i < collected[0].size(); ++i) {
        const audit::HerbAttribution& a = collected[0][i];
        const audit::HerbAttribution& b = collected[p][i];
        EXPECT_EQ(a.herb_id, b.herb_id) << "path " << p;
        EXPECT_EQ(a.score, b.score) << "path " << p;
        EXPECT_EQ(a.bipar, b.bipar) << "path " << p;
        EXPECT_EQ(a.synergy, b.synergy) << "path " << p;
        EXPECT_EQ(a.pool_bias, b.pool_bias) << "path " << p;
        EXPECT_EQ(a.pool_residual, b.pool_residual) << "path " << p;
        EXPECT_EQ(a.per_symptom, b.per_symptom) << "path " << p;
      }
    }
  }
}

TEST(AttributionTest, F64MatchesCheckpointReference) {
  // The store's f64 attribution is bit-identical to the checkpoint-level
  // reference implementation (both accumulate ascending-k from zero).
  auto ckpt = MakeCheckpoint(24, 40, 8, true, /*with_herb_bipar=*/true);
  core::InferenceCheckpoint reference_copy = ckpt;
  auto engine = ServingEngine::Create(std::move(ckpt));
  ASSERT_TRUE(engine.ok());
  Request request = MakeRequest({2, 4, 6}, 5);
  request.attribution = true;
  const Response response = (*engine)->Handle(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.attribution.has_value());

  auto reference = audit::AttributeFromCheckpoint(reference_copy, {2, 4, 6},
                                                  response.herb_ids);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->herbs.size(), response.attribution->herbs.size());
  for (std::size_t i = 0; i < reference->herbs.size(); ++i) {
    const audit::HerbAttribution& expected = reference->herbs[i];
    const audit::HerbAttribution& got = response.attribution->herbs[i];
    EXPECT_EQ(got.score, expected.score);
    EXPECT_EQ(got.bipar, expected.bipar);
    EXPECT_EQ(got.synergy, expected.synergy);
    EXPECT_EQ(got.pool_bias, expected.pool_bias);
    EXPECT_EQ(got.pool_residual, expected.pool_residual);
    EXPECT_EQ(got.per_symptom, expected.per_symptom);
  }
}

TEST(AttributionTest, WithoutBiparTableFallsBackToWholeScore) {
  auto engine = ServingEngine::Create(
      MakeCheckpoint(24, 40, 8, true, /*with_herb_bipar=*/false));
  ASSERT_TRUE(engine.ok());
  Request request = MakeRequest({1, 3}, 5);
  request.attribution = true;
  const Response response = (*engine)->Handle(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.attribution.has_value());
  for (const audit::HerbAttribution& herb : response.attribution->herbs) {
    EXPECT_FALSE(herb.has_components);
    EXPECT_EQ(herb.bipar, herb.score);
    EXPECT_EQ(herb.synergy, 0.0);
    EXPECT_EQ(audit::ReconstructPooled(herb), herb.score);
  }
}

TEST(AttributionTest, RequestIdMintedEchoedAndSlowLogged) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-9;  // everything is "slow"
  options.slow_query_log_capacity = 16;
  auto engine = ServingEngine::Create(
      MakeCheckpoint(24, 40, 8, true, true), options);
  ASSERT_TRUE(engine.ok());

  // Client-supplied id is echoed on the sync path...
  Request request = MakeRequest({2, 4}, 5);
  request.request_id = "client-id-7";
  const Response echoed = (*engine)->Handle(request);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.request_id, "client-id-7");

  // ...and minted when absent, on both paths.
  Request minted_req = MakeRequest({2, 4}, 5);
  const Response minted = (*engine)->Handle(minted_req);
  ASSERT_TRUE(minted.ok());
  EXPECT_NE(minted.request_id, "client-id-7");
  // Minted ids are 16 lowercase hex digits.
  EXPECT_EQ(minted.request_id.size(), 16u);
  EXPECT_EQ(minted.request_id.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  Request async_req = MakeRequest({1, 5}, 5);
  async_req.request_id = "async-id-9";
  const Response async = (*engine)->SubmitRequest(std::move(async_req)).get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async.request_id, "async-id-9");

  // Minted ids are unique across requests.
  Request another = MakeRequest({2, 4}, 5);
  const Response minted2 = (*engine)->Handle(another);
  EXPECT_NE(minted2.request_id, minted.request_id);

  // The slow log carries the correlation id and the model/version.
  bool found = false;
  for (const SlowQueryRecord& record :
       (*engine)->slow_query_log().Snapshot()) {
    if (record.request_id == "client-id-7") {
      found = true;
      EXPECT_EQ(record.model, "test-ckpt");
      EXPECT_EQ(record.model_version, "v1");
      EXPECT_NE(record.ToString().find("id=client-id-7"), std::string::npos);
      EXPECT_NE(record.ToString().find("model=test-ckpt/v1"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AttributionTest, ErrorsAndDenseModeCarryNoAttribution) {
  auto engine = ServingEngine::Create(MakeCheckpoint(24, 40, 8, true, true));
  ASSERT_TRUE(engine.ok());
  // Invalid symptoms: error response still carries a request id.
  Request bad = MakeRequest({9999}, 5);
  bad.attribution = true;
  bad.request_id = "bad-1";
  const Response error = (*engine)->Handle(bad);
  EXPECT_FALSE(error.ok());
  EXPECT_FALSE(error.attribution.has_value());
  EXPECT_EQ(error.request_id, "bad-1");
  // Dense mode ignores the attribution flag (ranked-only contract).
  Request dense = MakeRequest({1, 2}, 0);
  dense.attribution = true;
  const Response scores = (*engine)->Handle(dense);
  ASSERT_TRUE(scores.ok());
  EXPECT_FALSE(scores.attribution.has_value());
}

}  // namespace
}  // namespace serve
}  // namespace smgcn
