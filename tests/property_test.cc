// Randomized property tests: long random operation sequences against
// the promise manager must keep every engine's invariants verifiable,
// never oversell stock, and leave no residue after a full release.
//
// The oracle after every operation is a no-op action through the
// manager: its §8 post-action check runs VerifyConsistent on every
// engine, so any corrupted engine state surfaces immediately.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/promise_manager.h"
#include "predicate/parser.h"
#include "service/services.h"

namespace promises {
namespace {

struct SweepParam {
  Technique technique;
  // Fills what would be padding between the two fields. gtest prints a
  // param without a printer as its raw bytes, and the ctest names are
  // built from that print: padding made them differ between builds.
  uint32_t zero = 0;
  uint64_t seed = 0;
};
static_assert(sizeof(SweepParam) == 16, "every byte of the param is a field");

SweepParam Case(Technique technique, uint64_t seed) {
  return SweepParam{technique, 0, seed};
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name(TechniqueToString(info.param.technique));
  for (char& c : name) {
    if (c == '-') c = '_';  // gtest param names must be alphanumeric
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

// --- Pool sweep ---------------------------------------------------------

class PoolSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PoolSweepTest, RandomOpsKeepInvariants) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  SimulatedClock clock(0);
  TransactionManager tm(100);
  ResourceManager rm;
  constexpr int64_t kStock = 50;
  ASSERT_TRUE(rm.CreatePool("stock", kStock).ok());

  PromiseManagerConfig config;
  config.name = "sweep";
  config.default_duration_ms = 1'000;
  config.policy.Set("stock", param.technique);
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("inventory", MakeInventoryService());
  ClientId client = pm.ClientFor("sweeper");

  std::vector<PromiseId> held;
  int64_t sold = 0;
  int64_t restocked = 0;

  auto verify_all = [&] {
    // Oracle: a harmless action whose post-check verifies every engine.
    ActionBody check;
    check.service = "inventory";
    check.operation = "check";
    check.params["item"] = Value("stock");
    auto out = pm.Execute(client, check, {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out->ok) << out->error;
    int64_t on_hand = out->outputs.at("quantity").as_int();
    ASSERT_GE(on_hand, 0);
    ASSERT_EQ(on_hand, kStock - sold + restocked);
  };

  for (int step = 0; step < 300; ++step) {
    switch (rng.UniformInt(0, 5)) {
      case 0: {  // request a promise
        auto out = pm.RequestPromise(
            client,
            {Predicate::Quantity("stock", CompareOp::kGe,
                                 rng.UniformInt(1, 12))},
            rng.UniformInt(100, 2'000));
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->accepted) held.push_back(out->promise_id);
        break;
      }
      case 1: {  // release one held promise
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        (void)pm.Release(client, {held[pick]});
        held.erase(held.begin() + pick);
        break;
      }
      case 2: {  // consume under a held promise, releasing it
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        const PromiseRecord* rec = pm.FindPromise(held[pick]);
        if (rec == nullptr) {  // may have lapsed
          held.erase(held.begin() + pick);
          break;
        }
        int64_t amount = rec->predicates[0].amount();
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("stock");
        buy.params["quantity"] = Value(amount);
        buy.params["promise"] =
            Value(static_cast<int64_t>(held[pick].value()));
        EnvironmentHeader env;
        env.entries.push_back({held[pick], true});
        auto out = pm.Execute(client, buy, env);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->ok) sold += amount;
        held.erase(held.begin() + pick);
        break;
      }
      case 3: {  // unprotected purchase (may be rolled back)
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("stock");
        buy.params["quantity"] = Value(rng.UniformInt(1, 6));
        auto out = pm.Execute(client, buy, {});
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->ok) sold += buy.params.at("quantity").as_int();
        break;
      }
      case 4: {  // restock
        ActionBody add;
        add.service = "inventory";
        add.operation = "restock";
        add.params["item"] = Value("stock");
        add.params["quantity"] = Value(rng.UniformInt(1, 5));
        auto out = pm.Execute(client, add, {});
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->ok) restocked += add.params.at("quantity").as_int();
        break;
      }
      default: {  // time passes; promises lapse
        clock.Advance(rng.UniformInt(0, 400));
        break;
      }
    }
    verify_all();
  }

  // Drain: release everything; afterwards the full remaining stock must
  // be promisable in one request.
  (void)pm.Release(client, held);
  pm.ExpireDue();
  int64_t remaining = kStock - sold + restocked;
  if (remaining > 0) {
    auto out = pm.RequestPromise(
        client,
        {Predicate::Quantity("stock", CompareOp::kGe, remaining)});
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->accepted)
        << "after releasing everything, the whole remainder ("
        << remaining << ") must be promisable: " << out->reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PoolSweepTest,
    ::testing::Values(Case(Technique::kSatisfiability, 1),
                      Case(Technique::kSatisfiability, 2),
                      Case(Technique::kSatisfiability, 3),
                      Case(Technique::kResourcePool, 1),
                      Case(Technique::kResourcePool, 2),
                      Case(Technique::kResourcePool, 3)),
    ParamName);

// --- Instance sweep ------------------------------------------------------

class InstanceSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InstanceSweepTest, RandomOpsKeepInvariants) {
  const SweepParam param = GetParam();
  Rng rng(param.seed * 77 + 5);
  SimulatedClock clock(0);
  TransactionManager tm(100);
  ResourceManager rm;
  Schema schema({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false}});
  ASSERT_TRUE(rm.CreateInstanceClass("room", schema).ok());
  constexpr int kRooms = 12;
  for (int i = 0; i < kRooms; ++i) {
    ASSERT_TRUE(rm.AddInstance("room", "r" + std::to_string(i),
                               {{"floor", Value(1 + i % 4)},
                                {"view", Value(i % 3 == 0)}})
                    .ok());
  }

  PromiseManagerConfig config;
  config.name = "sweep";
  config.default_duration_ms = 1'000;
  config.policy.Set("room", param.technique);
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("booking", MakeBookingService());
  pm.RegisterService("inventory", MakeInventoryService());
  ASSERT_TRUE(rm.CreatePool("noop", 1).ok());
  ClientId client = pm.ClientFor("sweeper");

  std::vector<PromiseId> held;
  int64_t booked = 0;

  auto verify_all = [&] {
    ActionBody check;
    check.service = "inventory";
    check.operation = "check";
    check.params["item"] = Value("noop");
    auto out = pm.Execute(client, check, {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out->ok) << out->error;
  };

  auto random_predicate = [&]() -> Predicate {
    switch (rng.UniformInt(0, 2)) {
      case 0:
        return Predicate::Named(
            "room", "r" + std::to_string(rng.UniformInt(0, kRooms - 1)));
      case 1:
        return Predicate::Property(
            "room",
            Expr::Compare("floor", CompareOp::kEq,
                          Value(rng.UniformInt(1, 4))),
            rng.UniformInt(1, 2));
      default:
        return Predicate::Property(
            "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
    }
  };

  for (int step = 0; step < 200; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        auto out = pm.RequestPromise(client, {random_predicate()},
                                     rng.UniformInt(100, 2'000));
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->accepted) held.push_back(out->promise_id);
        break;
      }
      case 1: {
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        (void)pm.Release(client, {held[pick]});
        held.erase(held.begin() + pick);
        break;
      }
      case 2: {  // book one instance under a held promise
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        const PromiseRecord* rec = pm.FindPromise(held[pick]);
        if (rec == nullptr) {
          held.erase(held.begin() + pick);
          break;
        }
        ActionBody book;
        book.service = "booking";
        book.operation = "book";
        book.params["class"] = Value("room");
        book.params["promise"] =
            Value(static_cast<int64_t>(held[pick].value()));
        EnvironmentHeader env;
        env.entries.push_back({held[pick], true});
        auto out = pm.Execute(client, book, env);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out->ok) ++booked;
        held.erase(held.begin() + pick);
        break;
      }
      default: {
        clock.Advance(rng.UniformInt(0, 400));
        break;
      }
    }
    verify_all();
  }

  // Conservation: taken instances == successful bookings; the rest are
  // available or promised, never lost.
  auto txn = tm.Begin();
  auto rooms = *rm.ListInstances(txn.get(), "room");
  int64_t taken = 0;
  for (const InstanceView& room : rooms) {
    if (room.status == InstanceStatus::kTaken) ++taken;
  }
  EXPECT_EQ(taken, booked);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InstanceSweepTest,
    ::testing::Values(Case(Technique::kSatisfiability, 1),
                      Case(Technique::kSatisfiability, 2),
                      Case(Technique::kAllocatedTags, 1),
                      Case(Technique::kAllocatedTags, 2),
                      Case(Technique::kTentative, 1),
                      Case(Technique::kTentative, 2),
                      Case(Technique::kTentative, 3)),
    ParamName);

}  // namespace
}  // namespace promises
