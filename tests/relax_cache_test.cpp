#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fingerprint.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "oracles/stack_discretize.hpp"
#include "solver/discretize.hpp"
#include "testutil.hpp"

namespace mfa::core {
namespace {

using test::tiny_problem;

TEST(Fingerprint, SensitiveToRelaxationInputsOnly) {
  const Problem base = tiny_problem();
  const Fingerprint fp = relaxation_fingerprint(base);

  // Anything the relaxation depends on changes the fingerprint…
  Problem changed = base;
  changed.app.kernels[0].wcet_ms += 1e-9;
  EXPECT_NE(relaxation_fingerprint(changed), fp);
  changed = base;
  changed.resource_fraction = 0.79;
  EXPECT_NE(relaxation_fingerprint(changed), fp);
  changed = base;
  changed.platform.num_fpgas = 3;
  EXPECT_NE(relaxation_fingerprint(changed), fp);

  // …while names and objective weights do not (so β = 0 twins share
  // relaxation entries).
  changed = base;
  changed.app.name = "renamed";
  changed.app.kernels[1].name = "other";
  changed.beta = 0.0;
  changed.alpha = 17.0;
  EXPECT_EQ(relaxation_fingerprint(changed), fp);
}

TEST(Fingerprint, BoundsAndHintsKeySeparateEntries) {
  const Problem p = tiny_problem();
  const CuBounds defaults = CuBounds::defaults(p);
  CuBounds tightened = defaults;
  tightened.upper[0] -= 1.0;
  EXPECT_NE(relaxation_cache_key(p, defaults, 0.0),
            relaxation_cache_key(p, tightened, 0.0));
  EXPECT_NE(relaxation_cache_key(p, defaults, 0.0),
            relaxation_cache_key(p, defaults, 2.5));
}

TEST(RelaxationCache, HitMissAndFirstWriterWins) {
  RelaxationCache cache;
  const Problem p = tiny_problem();
  const Fingerprint key = relaxation_cache_key(p, CuBounds::defaults(p), 0.0);

  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto solved = solve_relaxation(p);
  ASSERT_TRUE(solved.is_ok());
  auto stored = cache.insert(key, solved);
  ASSERT_NE(stored, nullptr);

  auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), stored.get());  // same entry, shared ownership
  EXPECT_EQ(hit->value().ii, solved.value().ii);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // A second insert under the same key keeps the first entry.
  auto second = cache.insert(key, solved);
  EXPECT_EQ(second.get(), stored.get());
  EXPECT_EQ(cache.size(), 1u);

  // Infeasible outcomes are cacheable too.
  CuBounds empty = CuBounds::defaults(p);
  empty.lower[0] = 5.0;
  empty.upper[0] = 4.0;
  const Fingerprint bad_key = relaxation_cache_key(p, empty, 0.0);
  auto entry = cache.get_or_solve(
      bad_key, [&] { return solve_relaxation(p, empty); });
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->is_ok());
  EXPECT_EQ(entry->status().code(), Code::kInfeasible);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Entries handed out before clear() stay alive (shared ownership).
  EXPECT_TRUE(hit->is_ok());
}

TEST(RelaxationCache, ConcurrentGetOrSolveIsConsistent) {
  // Many threads hammer the same small key set; every returned entry for
  // a key must be valid and identical in value, whatever thread won.
  RelaxationCache cache;
  const Problem p = tiny_problem();
  std::vector<Fingerprint> keys;
  std::vector<CuBounds> bounds;
  for (int i = 0; i < 8; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.25 * (i + 1);  // 8 distinct keys
    bounds.push_back(b);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
  }
  const auto reference = [&](int i) { return solve_relaxation(p, bounds[i]); };

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const int i = (t + round) % 8;
        auto entry = cache.get_or_solve(
            keys[i], [&] { return solve_relaxation(p, bounds[i]); });
        auto expect = reference(i);
        if (entry->is_ok() != expect.is_ok()) {
          ++mismatches;
        } else if (entry->is_ok() &&
                   entry->value().ii != expect.value().ii) {
          ++mismatches;  // bit-identical, not merely close
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), 8u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(RelaxationCache, ShardedCacheBehavesLikeSingleShard) {
  // Sharding is a pure concurrency optimization: the same key set lands
  // in the same cache with identical hit/miss behavior, just spread
  // over independently locked shards.
  RelaxCacheConfig config;
  config.shards = 7;  // rounded up to 8
  RelaxationCache cache(config);
  EXPECT_EQ(cache.num_shards(), 8u);
  EXPECT_EQ(cache.capacity(), 0u);  // unbounded

  const Problem p = tiny_problem();
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 64; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.1 * (i + 1);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
    cache.insert(keys.back(), solve_relaxation(p, b));
  }
  EXPECT_EQ(cache.size(), 64u);
  for (const Fingerprint& key : keys) {
    EXPECT_NE(cache.lookup(key), nullptr);
  }
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RelaxationCache, EvictionBoundsResidencyAndStaysTransparent) {
  RelaxCacheConfig config;
  config.shards = 4;
  config.max_entries = 16;  // 4 per shard
  RelaxationCache cache(config);
  EXPECT_EQ(cache.capacity(), 16u);

  const Problem p = tiny_problem();
  std::vector<CuBounds> bounds;
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 200; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.05 * (i + 1);
    bounds.push_back(b);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
    cache.get_or_solve(keys.back(),
                       [&] { return solve_relaxation(p, b); });
  }
  // Residency never exceeds the bound, and evictions happened.
  EXPECT_LE(cache.size(), 16u);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 200u - 16u);
  EXPECT_LE(stats.entries, 16u);

  // Transparency: an evicted key re-solves to bit-identical bytes.
  for (int i = 0; i < 200; ++i) {
    auto entry = cache.get_or_solve(
        keys[static_cast<std::size_t>(i)],
        [&] { return solve_relaxation(p, bounds[static_cast<std::size_t>(i)]); });
    const auto fresh = solve_relaxation(p, bounds[static_cast<std::size_t>(i)]);
    ASSERT_EQ(entry->is_ok(), fresh.is_ok());
    if (fresh.is_ok()) {
      EXPECT_EQ(entry->value().ii, fresh.value().ii);
      EXPECT_EQ(entry->value().n_hat, fresh.value().n_hat);
    }
  }
}

TEST(RelaxationCache, EvictedEntriesStayAliveForHolders) {
  RelaxCacheConfig config;
  config.shards = 1;
  config.max_entries = 1;
  RelaxationCache cache(config);
  const Problem p = tiny_problem();
  CuBounds b0 = CuBounds::defaults(p);
  auto held = cache.insert(relaxation_cache_key(p, b0, 0.0),
                           solve_relaxation(p, b0));
  CuBounds b1 = CuBounds::defaults(p);
  b1.lower[0] += 1.0;
  cache.insert(relaxation_cache_key(p, b1, 0.0), solve_relaxation(p, b1));
  EXPECT_EQ(cache.size(), 1u);  // b0's entry was evicted…
  ASSERT_NE(held, nullptr);     // …but the held pointer still works
  EXPECT_TRUE(held->is_ok());
  EXPECT_GT(held->value().ii, 0.0);
}

TEST(RelaxationWarmStart, BisectionHintPreservesOptimum) {
  // Any positive hint — inside or outside the bracket, feasible or not —
  // must leave the bisection optimum unchanged to tolerance.
  const Problem p = tiny_problem();
  const CuBounds b = CuBounds::defaults(p);
  const auto cold = solve_relaxation(p, b);
  ASSERT_TRUE(cold.is_ok());
  for (double hint : {1e-6, 0.5, 0.9, 1.0, 1.1, 2.0, 1e6}) {
    const auto warm = solve_relaxation(p, b, hint * cold.value().ii);
    ASSERT_TRUE(warm.is_ok()) << "hint factor " << hint;
    EXPECT_NEAR(warm.value().ii, cold.value().ii,
                1e-9 * cold.value().ii)
        << "hint factor " << hint;
  }
}

TEST(Discretizer, CachedAndWarmStartedSearchMatchesColdSearch) {
  // The cache + parent-hint warm starts are pure accelerations: totals
  // and II must match a cold discretization exactly (the stack oracle
  // with cold node hints and no cache).
  const Problem p = tiny_problem();
  const auto cold = oracles::stack_discretize(p, {}, oracles::NodeHints::kCold);
  ASSERT_TRUE(cold.is_ok());

  RelaxationCache cache;
  solver::DiscretizeOptions warm_opts;
  warm_opts.cache = &cache;
  const auto warm = solver::Discretizer(warm_opts).run(p);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm.value().totals, cold.value().totals);
  EXPECT_DOUBLE_EQ(warm.value().ii, cold.value().ii);
  EXPECT_GT(cache.size(), 0u);

  // Re-running with a populated cache reproduces the result from hits.
  const auto replay = solver::Discretizer(warm_opts).run(p);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().totals, warm.value().totals);
  EXPECT_EQ(cache.stats().hits, cache.stats().misses);
}

}  // namespace
}  // namespace mfa::core
