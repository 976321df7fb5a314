// The three workloads: what one business operation is, the catalog it
// runs on, and the checks the benchmark makes against its own tallies.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "resource/resource_manager.h"

namespace perfbench {

/// Operation counts of one workload. MakeWorkload splits the warm-up
/// and round counts evenly between the clients; the workload sees them
/// per client.
struct Plan {
  int warmup_ops = 0;    ///< business operations in each set-up's warm-up
  int round_ops = 0;     ///< business operations in one measured round
  /// restart only: measured rounds before the checkpoint cut and after
  /// it (the tail). Zero for workloads measured for a run's duration.
  int rounds_before_cut = 0;
  int rounds_after_cut = 0;
  /// room-hold only: holds kept open across all clients.
  int population = 0;
};

/// One matching-layer event of the room-hold sequence, in client order.
struct HoldEvent {
  enum Kind { kAdd, kRemove, kTake, kFree } kind;
  uint64_t demand = 0;  ///< hold id (kAdd, kRemove)
  int category = 0;     ///< kAdd
  std::string room;     ///< kTake, kFree
};

class Workload {
 public:
  Workload(uint64_t seed, int clients, Plan plan)
      : seed_(seed), clients_(clients), plan_(plan) {}
  virtual ~Workload() = default;

  const Plan& plan() const { return plan_; }
  /// The catalog; defined on every boot, before recovery.
  virtual void DefineResources(ResourceManager& rm) const = 0;
  /// A fresh node was booted on an empty directory: forget every tally.
  /// `generation` varies the per-client random streams between set-ups.
  virtual void Reset(int generation) = 0;
  /// Done once per client on a fresh node, before warm-up.
  virtual Status Prepare(Executor& ex, int client);
  /// One business operation.
  virtual Status Step(Executor& ex, int client) = 0;
  /// Done once per client after the measured phase (restart: act on
  /// every open hold).
  virtual Status Finish(Executor& ex, int client);
  /// Checks a quiescent node against the benchmark's own tallies.
  virtual void Check(PromiseManager& pm, ResourceManager& rm,
                     Checker* checker) const = 0;
  /// Business operations acknowledged on the current node.
  virtual uint64_t committed() const = 0;
  /// A request of this workload, for direct-API release timing.
  virtual Predicate SamplePredicate(Rng& rng) const = 0;
  /// Matching-layer events so far (room-hold only).
  virtual std::vector<HoldEvent> HoldEvents() const { return {}; }

  int clients() const { return clients_; }
  void set_checker(Checker* checker) { checker_ = checker; }

 protected:
  uint64_t StreamSeed(int generation, int client) const {
    return seed_ * 1'000'003ull + static_cast<uint64_t>(generation) * 7'919ull +
           static_cast<uint64_t>(client) + 1;
  }

  uint64_t seed_;
  int clients_;
  Plan plan_;
  Checker* checker_ = nullptr;
};

/// Figure 1 merchant orders over many item pools; stock never runs out.
class CheckoutWorkload : public Workload {
 public:
  CheckoutWorkload(uint64_t seed, int clients, Plan plan);

  void DefineResources(ResourceManager& rm) const override;
  void Reset(int generation) override;
  Status Step(Executor& ex, int client) override;
  void Check(PromiseManager& pm, ResourceManager& rm,
             Checker* checker) const override;
  uint64_t committed() const override;
  Predicate SamplePredicate(Rng& rng) const override;

 protected:
  /// Grant + purchase with release, tallied per item.
  Status Order(Executor& ex, int client);
  void CheckStock(ResourceManager& rm, Checker* checker,
                  const std::string& name) const;

  struct ClientState {
    Rng rng{1};
    std::vector<int64_t> purchased;  ///< per item
    uint64_t committed = 0;
  };

  std::vector<std::string> items_;
  std::vector<ClientState> state_;
};

/// Hotel holds on a property-viewed room catalog (§3.3) under the
/// default tentative allocation (§5), with a standing hold population.
class RoomHoldWorkload : public Workload {
 public:
  RoomHoldWorkload(uint64_t seed, int clients, Plan plan);

  void DefineResources(ResourceManager& rm) const override;
  void Reset(int generation) override;
  Status Prepare(Executor& ex, int client) override;
  Status Step(Executor& ex, int client) override;
  void Check(PromiseManager& pm, ResourceManager& rm,
             Checker* checker) const override;
  uint64_t committed() const override;
  Predicate SamplePredicate(Rng& rng) const override;
  std::vector<HoldEvent> HoldEvents() const override;

  /// The hold predicate for a (floor, view) category.
  static Predicate CategoryPredicate(int category);
  static int CategoryCount();

 private:
  struct Hold {
    PromiseId id;
    int category = 0;
  };
  struct Booking {
    std::string room;
    int category = 0;
  };
  struct ClientState {
    Rng rng{1};
    std::vector<int> used;  ///< per category: open holds + bookings
    std::deque<Hold> holds;
    std::deque<Booking> bookings;
    std::vector<HoldEvent> events;
    uint64_t committed = 0;
  };

  Status PlaceHold(Executor& ex, int client);
  Status Book(Executor& ex, int client, const Hold& hold);

  std::map<std::string, int> room_category_;  ///< the benchmark's own copy
  std::vector<int> rooms_in_category_;
  std::vector<ClientState> state_;
  mutable std::mutex booked_mu_;
  std::set<std::string> booked_;  ///< rooms currently held by a booking
};

/// A long mixed history of orders plus pool holds left open, so the
/// promise table carries thousands of live promises at the kill.
class RestartWorkload : public CheckoutWorkload {
 public:
  RestartWorkload(uint64_t seed, int clients, Plan plan);

  void Reset(int generation) override;
  Status Step(Executor& ex, int client) override;
  Status Finish(Executor& ex, int client) override;
  void Check(PromiseManager& pm, ResourceManager& rm,
             Checker* checker) const override;

 private:
  struct Hold {
    PromiseId id;
    size_t item = 0;
  };
  std::vector<std::vector<Hold>> holds_;  ///< per client, still open
};

/// Builds the named workload ("checkout", "room-hold", "restart"), or
/// null for an unknown name, driven over `clients` connections.
/// `smoke` shrinks every count.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
