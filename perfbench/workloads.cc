#include "workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

// Checkout and restart: many item pools whose stock never runs out, so
// the pool engine's work per order stays O(1) and the wire and the log
// carry the cost.
constexpr int kItems = 512;
constexpr int64_t kStock = 1'000'000'000'000;
constexpr int64_t kMaxOrderQuantity = 4;

// Room-hold: 16 floors of 30 rooms, half of them with a view, so 32
// (floor, view) categories of 15 rooms. Each client owns the categories
// congruent to its index, which keeps its capacity model private while
// every request still contends on the one "room" class stripe.
constexpr int kFloors = 16;
constexpr int kRoomsPerFloor = 30;
constexpr int kViewRoomsPerFloor = 15;
constexpr size_t kBookingsPerClient = 8;  ///< vacated oldest-first beyond this
constexpr double kBookShare = 1.0 / 3;   ///< retired holds that are booked

// Restart: share of history operations that open a hold and leave it.
constexpr double kHoldShare = 0.2;

ActionBody Purchase(const std::string& item, int64_t quantity,
                    PromiseId promise) {
  ActionBody buy;
  buy.service = "inventory";
  buy.operation = "purchase";
  buy.params["item"] = Value(item);
  buy.params["quantity"] = Value(quantity);
  buy.params["promise"] = Value(static_cast<int64_t>(promise.value()));
  return buy;
}

}  // namespace

Status Workload::Prepare(Executor&, int) { return Status::OK(); }
Status Workload::Finish(Executor&, int) { return Status::OK(); }

// ---------------------------------------------------------------------------
// checkout

CheckoutWorkload::CheckoutWorkload(uint64_t seed, int clients, Plan plan)
    : Workload(seed, clients, plan) {
  for (int i = 0; i < kItems; ++i) items_.push_back("item-" + std::to_string(i));
  state_.resize(static_cast<size_t>(clients));
}

void CheckoutWorkload::DefineResources(ResourceManager& rm) const {
  for (const std::string& item : items_) (void)rm.CreatePool(item, kStock);
}

void CheckoutWorkload::Reset(int generation) {
  for (int c = 0; c < clients_; ++c) {
    ClientState& s = state_[static_cast<size_t>(c)];
    s.rng = Rng(StreamSeed(generation, c));
    s.purchased.assign(items_.size(), 0);
    s.committed = 0;
  }
}

Status CheckoutWorkload::Order(Executor& ex, int client) {
  ClientState& s = state_[static_cast<size_t>(client)];
  const size_t item = static_cast<size_t>(s.rng.UniformInt(0, kItems - 1));
  const int64_t quantity = s.rng.UniformInt(1, kMaxOrderQuantity);
  PROMISES_ASSIGN_OR_RETURN(
      PromiseId promise,
      ex.Grant({Predicate::Quantity(items_[item], CompareOp::kGe, quantity)}));
  PROMISES_ASSIGN_OR_RETURN(
      auto outputs, ex.Act(Purchase(items_[item], quantity, promise), {promise}));
  auto shipped = outputs.find("shipped");
  if (shipped == outputs.end() || !shipped->second.is_int() ||
      shipped->second.as_int() != quantity) {
    return Status::Internal("purchase reply does not ship the ordered quantity");
  }
  s.purchased[item] += quantity;
  ++s.committed;
  return Status::OK();
}

Status CheckoutWorkload::Step(Executor& ex, int client) {
  return Order(ex, client);
}

void CheckoutWorkload::CheckStock(ResourceManager& rm, Checker* checker,
                                  const std::string& name) const {
  for (size_t i = 0; i < items_.size(); ++i) {
    int64_t purchased = 0;
    for (const ClientState& s : state_) purchased += s.purchased[i];
    Result<int64_t> on_hand = rm.ExportPoolQuantity(items_[i]);
    checker->Equal(name, on_hand.ok() ? kStock - *on_hand : -1, purchased,
                   items_[i] + " consumed");
  }
}

void CheckoutWorkload::Check(PromiseManager& pm, ResourceManager& rm,
                             Checker* checker) const {
  CheckStock(rm, checker, "stock_consumed_equals_purchases");
  PromiseManagerStats stats = pm.stats();
  checker->Equal("granted_equals_released",
                 static_cast<int64_t>(stats.released),
                 static_cast<int64_t>(stats.granted), "released");
  checker->Equal("no_active_promises",
                 static_cast<int64_t>(pm.active_promises()), 0,
                 "active promises");
}

uint64_t CheckoutWorkload::committed() const {
  uint64_t total = 0;
  for (const ClientState& s : state_) total += s.committed;
  return total;
}

Predicate CheckoutWorkload::SamplePredicate(Rng& rng) const {
  return Predicate::Quantity(
      items_[static_cast<size_t>(rng.UniformInt(0, kItems - 1))],
      CompareOp::kGe, rng.UniformInt(1, kMaxOrderQuantity));
}

// ---------------------------------------------------------------------------
// room-hold

RoomHoldWorkload::RoomHoldWorkload(uint64_t seed, int clients, Plan plan)
    : Workload(seed, clients, plan), rooms_in_category_(CategoryCount(), 0) {
  for (int floor = 1; floor <= kFloors; ++floor) {
    for (int k = 0; k < kRoomsPerFloor; ++k) {
      const bool view = k < kViewRoomsPerFloor;
      const int category = (floor - 1) * 2 + (view ? 1 : 0);
      room_category_["r" + std::to_string(floor * 100 + k)] = category;
      ++rooms_in_category_[static_cast<size_t>(category)];
    }
  }
  state_.resize(static_cast<size_t>(clients));
}

int RoomHoldWorkload::CategoryCount() { return kFloors * 2; }

Predicate RoomHoldWorkload::CategoryPredicate(int category) {
  const int floor = category / 2 + 1;
  const bool view = category % 2 == 1;
  return Predicate::Property(
      "room",
      Expr::And(Expr::Compare("floor", CompareOp::kEq, Value(floor)),
                Expr::Compare("view", CompareOp::kEq, Value(view))),
      1);
}

void RoomHoldWorkload::DefineResources(ResourceManager& rm) const {
  (void)rm.CreateInstanceClass(
      "room", Schema({{"floor", ValueType::kInt, false},
                      {"view", ValueType::kBool, false}}));
  for (const auto& [room, category] : room_category_) {
    (void)rm.AddInstance("room", room,
                         {{"floor", Value(category / 2 + 1)},
                          {"view", Value(category % 2 == 1)}});
  }
}

void RoomHoldWorkload::Reset(int generation) {
  for (int c = 0; c < clients_; ++c) {
    ClientState& s = state_[static_cast<size_t>(c)];
    s.rng = Rng(StreamSeed(generation, c));
    s.used.assign(static_cast<size_t>(CategoryCount()), 0);
    s.holds.clear();
    s.bookings.clear();
    s.events.clear();
    s.committed = 0;
  }
  std::lock_guard<std::mutex> lk(booked_mu_);
  booked_.clear();
}

Status RoomHoldWorkload::PlaceHold(Executor& ex, int client) {
  ClientState& s = state_[static_cast<size_t>(client)];
  std::vector<int> open;
  for (int c = client; c < CategoryCount(); c += clients_) {
    if (s.used[static_cast<size_t>(c)] <
        rooms_in_category_[static_cast<size_t>(c)]) {
      open.push_back(c);
    }
  }
  if (open.empty()) return Status::Internal("no category has a free room");
  const int category = open[static_cast<size_t>(
      s.rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1))];
  PROMISES_ASSIGN_OR_RETURN(PromiseId id,
                            ex.Grant({CategoryPredicate(category)}));
  ++s.used[static_cast<size_t>(category)];
  s.holds.push_back({id, category});
  s.events.push_back({HoldEvent::kAdd, id.value(), category, ""});
  return Status::OK();
}

Status RoomHoldWorkload::Prepare(Executor& ex, int client) {
  for (int i = 0; i < plan_.population / clients_; ++i) {
    PROMISES_RETURN_IF_ERROR(PlaceHold(ex, client));
  }
  return Status::OK();
}

Status RoomHoldWorkload::Book(Executor& ex, int client, const Hold& hold) {
  ClientState& s = state_[static_cast<size_t>(client)];
  ActionBody book;
  book.service = "booking";
  book.operation = "book";
  book.params["class"] = Value("room");
  book.params["promise"] = Value(static_cast<int64_t>(hold.id.value()));
  PROMISES_ASSIGN_OR_RETURN(auto outputs, ex.Act(std::move(book), {hold.id}));
  auto booked = outputs.find("booked");
  if (booked == outputs.end() || !booked->second.is_string()) {
    return Status::Internal("booking reply names no room");
  }
  const std::string room = booked->second.as_string();
  auto category = room_category_.find(room);
  const bool matches =
      category != room_category_.end() && category->second == hold.category;
  checker_->True("booked_room_matches_hold", matches,
                 room + " for category " + std::to_string(hold.category));
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(booked_mu_);
    fresh = booked_.insert(room).second;
  }
  checker_->True("room_not_double_booked", fresh, room + " booked twice");
  s.events.push_back({HoldEvent::kRemove, hold.id.value(), 0, ""});
  s.events.push_back({HoldEvent::kTake, 0, 0, room});
  s.bookings.push_back({room, hold.category});

  if (s.bookings.size() > kBookingsPerClient) {
    Booking oldest = s.bookings.front();
    ActionBody vacate;
    vacate.service = "booking";
    vacate.operation = "vacate";
    vacate.params["class"] = Value("room");
    vacate.params["instance"] = Value(oldest.room);
    PROMISES_RETURN_IF_ERROR(ex.Act(std::move(vacate), {}).status());
    s.bookings.pop_front();
    --s.used[static_cast<size_t>(oldest.category)];
    s.events.push_back({HoldEvent::kFree, 0, 0, oldest.room});
    std::lock_guard<std::mutex> lk(booked_mu_);
    booked_.erase(oldest.room);
  }
  return Status::OK();
}

Status RoomHoldWorkload::Step(Executor& ex, int client) {
  ClientState& s = state_[static_cast<size_t>(client)];
  PROMISES_RETURN_IF_ERROR(PlaceHold(ex, client));
  Hold oldest = s.holds.front();
  s.holds.pop_front();
  if (s.rng.Chance(kBookShare)) {
    PROMISES_RETURN_IF_ERROR(Book(ex, client, oldest));
  } else {
    PROMISES_RETURN_IF_ERROR(ex.Release({oldest.id}));
    --s.used[static_cast<size_t>(oldest.category)];
    s.events.push_back({HoldEvent::kRemove, oldest.id.value(), 0, ""});
  }
  ++s.committed;
  return Status::OK();
}

void RoomHoldWorkload::Check(PromiseManager& pm, ResourceManager& rm,
                             Checker* checker) const {
  const size_t n = static_cast<size_t>(CategoryCount());
  std::vector<int64_t> open(n, 0), booked(n, 0), promised(n, 0), taken(n, 0);
  int64_t open_total = 0;
  for (const ClientState& s : state_) {
    for (const Hold& h : s.holds) ++open[static_cast<size_t>(h.category)];
    for (const Booking& b : s.bookings) ++booked[static_cast<size_t>(b.category)];
    open_total += static_cast<int64_t>(s.holds.size());
  }
  Result<std::vector<InstanceView>> rooms = rm.ExportInstances("room");
  if (rooms.ok()) {
    for (const InstanceView& room : *rooms) {
      auto it = room_category_.find(room.id);
      if (it == room_category_.end()) continue;
      const size_t c = static_cast<size_t>(it->second);
      if (room.status == InstanceStatus::kPromised) ++promised[c];
      if (room.status == InstanceStatus::kTaken) ++taken[c];
    }
  }
  checker->True("catalog_readable", rooms.ok(), "room class export failed");
  for (size_t c = 0; c < n; ++c) {
    const std::string what = "category " + std::to_string(c);
    checker->AtMost("open_holds_within_rooms", open[c],
                    rooms_in_category_[c] - taken[c], what + " open holds");
    checker->Equal("promised_rooms_equal_open_holds", promised[c], open[c],
                   what + " promised rooms");
    checker->Equal("taken_rooms_equal_bookings", taken[c], booked[c],
                   what + " taken rooms");
  }
  checker->Equal("active_promises_equal_open_holds",
                 static_cast<int64_t>(pm.active_promises()), open_total,
                 "active promises");
}

uint64_t RoomHoldWorkload::committed() const {
  uint64_t total = 0;
  for (const ClientState& s : state_) total += s.committed;
  return total;
}

Predicate RoomHoldWorkload::SamplePredicate(Rng& rng) const {
  return CategoryPredicate(
      static_cast<int>(rng.UniformInt(0, CategoryCount() - 1)));
}

std::vector<HoldEvent> RoomHoldWorkload::HoldEvents() const {
  std::vector<HoldEvent> all;
  for (const ClientState& s : state_) {
    all.insert(all.end(), s.events.begin(), s.events.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// restart

RestartWorkload::RestartWorkload(uint64_t seed, int clients, Plan plan)
    : CheckoutWorkload(seed, clients, plan) {
  holds_.resize(static_cast<size_t>(clients));
}

void RestartWorkload::Reset(int generation) {
  CheckoutWorkload::Reset(generation);
  for (auto& h : holds_) h.clear();
}

Status RestartWorkload::Step(Executor& ex, int client) {
  ClientState& s = state_[static_cast<size_t>(client)];
  if (!s.rng.Chance(kHoldShare)) return Order(ex, client);
  const size_t item = static_cast<size_t>(s.rng.UniformInt(0, kItems - 1));
  PROMISES_ASSIGN_OR_RETURN(
      PromiseId id,
      ex.Grant({Predicate::Quantity(items_[item], CompareOp::kGe, 1)}));
  holds_[static_cast<size_t>(client)].push_back({id, item});
  ++s.committed;
  return Status::OK();
}

Status RestartWorkload::Finish(Executor& ex, int client) {
  ClientState& s = state_[static_cast<size_t>(client)];
  std::vector<Hold>& holds = holds_[static_cast<size_t>(client)];
  for (const Hold& hold : holds) {
    Result<std::map<std::string, Value>> acted =
        ex.Act(Purchase(items_[hold.item], 1, hold.id), {hold.id});
    checker_->True("open_holds_actable", acted.ok(),
                   "hold " + std::to_string(hold.id.value()) + ": " +
                       acted.status().ToString());
    if (acted.ok()) s.purchased[hold.item] += 1;
  }
  holds.clear();
  return Status::OK();
}

void RestartWorkload::Check(PromiseManager& pm, ResourceManager& rm,
                            Checker* checker) const {
  CheckStock(rm, checker, "recovered_stock_equals_purchases");
  int64_t open = 0;
  for (const std::vector<Hold>& holds : holds_) {
    for (const Hold& hold : holds) {
      checker->True("open_holds_live", pm.FindPromise(hold.id) != nullptr,
                    "hold " + std::to_string(hold.id.value()) + " is gone");
    }
    open += static_cast<int64_t>(holds.size());
  }
  checker->Equal("active_promises_equal_open_holds",
                 static_cast<int64_t>(pm.active_promises()), open,
                 "active promises");
}

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients, bool smoke) {
  // Plan fields, in total over all clients: warm-up ops, round ops,
  // rounds before / after the cut, standing hold population. The smoke
  // plan only exercises the checks.
  auto per_client = [clients](Plan plan) {
    plan.warmup_ops /= clients;
    plan.round_ops /= clients;
    return plan;
  };
  if (name == "checkout") {
    const Plan plan = smoke ? Plan{20, 40, 0, 0, 0} : Plan{2000, 2000, 0, 0, 0};
    return std::make_unique<CheckoutWorkload>(seed, clients, per_client(plan));
  }
  if (name == "room-hold") {
    const Plan plan = smoke ? Plan{6, 12, 0, 0, 40} : Plan{80, 80, 0, 0, 240};
    return std::make_unique<RoomHoldWorkload>(seed, clients, per_client(plan));
  }
  if (name == "restart") {
    const Plan plan =
        smoke ? Plan{20, 40, 1, 1, 0} : Plan{2000, 2000, 16, 9, 0};
    return std::make_unique<RestartWorkload>(seed, clients, per_client(plan));
  }
  return nullptr;
}

}  // namespace perfbench
