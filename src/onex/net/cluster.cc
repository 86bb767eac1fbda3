#include "onex/net/cluster.h"

#include <utility>

#include "onex/common/string_utils.h"
#include "onex/engine/wal.h"
#include "onex/net/cluster_merge.h"

namespace onex::net {
namespace {

/// Owner-routed mutators reach the registry journal: the coordinator pins
/// them to the owner, never auto-retries them, and (on the owner) holds the
/// response until every live replica acked the append.
bool IsReplicatedMutator(const VerbSpec* spec) {
  return spec != nullptr && spec->exec == ExecClass::kMutator &&
         spec->route == ClusterRoute::kOwner;
}

/// Re-serializes a command for the owning shard: same verb, args and
/// options, plus the fwd=1 pin that stops the shard from routing it onward
/// and, when this node's session supplied the dataset, dataset=<name> (the
/// shard session is fresh). A command that names its dataset keeps its
/// own spelling, so GEN and LOAD, which take no dataset=, forward as sent.
WireRequest BuildForward(const Command& cmd, const std::string& dataset) {
  std::string line = cmd.verb;
  for (const std::string& arg : cmd.args) line += " " + arg;
  for (const auto& [key, value] : cmd.options) line += " " + key + "=" + value;
  if (cmd.args.empty() && cmd.options.count("dataset") == 0 &&
      cmd.options.count("name") == 0) {
    line += " dataset=" + dataset;
  }
  line += " fwd=1";
  WireRequest req;
  req.command = std::move(line);
  req.values = cmd.payload;
  return req;
}

json::Value Ok() {
  json::Value v = json::Value::MakeObject();
  v.Set("ok", true);
  return v;
}

Result<std::pair<std::string, std::uint16_t>> SplitHostPort(
    const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("cluster node must be host:port, got '" +
                                   endpoint + "'");
  }
  ONEX_ASSIGN_OR_RETURN(long long port, ParseInt(endpoint.substr(colon + 1)));
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("cluster node port out of range in '" +
                                   endpoint + "'");
  }
  return std::make_pair(endpoint.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

/// The hub ships to every node but this one.
ReplicationHub::Options HubOptions(const ClusterNode::Options& options) {
  ReplicationHub::Options hub;
  for (std::size_t i = 0; i < options.nodes.size(); ++i) {
    if (i != options.self) hub.peers.push_back(options.nodes[i]);
  }
  hub.ack_timeout = options.ack_timeout;
  return hub;
}

}  // namespace

ClusterNode::ClusterNode(Engine* engine, Options options)
    : engine_(engine),
      options_(std::move(options)),
      hub_(engine, HubOptions(options_)),
      alive_(options_.nodes.size(), true),
      pools_(options_.nodes.size()) {}

ClusterNode::~ClusterNode() { Stop(); }

Status ClusterNode::Start() {
  if (options_.nodes.empty() || options_.self >= options_.nodes.size()) {
    return Status::InvalidArgument(
        "cluster needs a node list containing this node's own index");
  }
  for (const std::string& endpoint : options_.nodes) {
    ONEX_RETURN_IF_ERROR(SplitHostPort(endpoint).status());
  }
  hub_.Start();
  return Status::OK();
}

void ClusterNode::Stop() {
  hub_.Stop();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (auto& pool : pools_) pool.clear();
}

std::uint64_t ClusterNode::HrwWeight(const std::string& dataset,
                                     std::size_t node_index) {
  return Fnv1a64(dataset + "#" + std::to_string(node_index));
}

std::size_t ClusterNode::OwnerOf(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return OwnerOfLocked(dataset);
}

std::size_t ClusterNode::OwnerOfLocked(const std::string& dataset) const {
  const auto it = overrides_.find(dataset);
  if (it != overrides_.end() && alive_[it->second]) return it->second;
  std::size_t best = kNoNode;
  std::uint64_t best_weight = 0;
  for (std::size_t i = 0; i < options_.nodes.size(); ++i) {
    if (!alive_[i]) continue;
    const std::uint64_t w = HrwWeight(dataset, i);
    // Strict > keeps the lowest index on a (vanishingly unlikely) weight tie.
    if (best == kNoNode || w > best_weight) {
      best = i;
      best_weight = w;
    }
  }
  return best;
}

bool ClusterNode::IsAlive(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return node < alive_.size() && alive_[node];
}

Result<std::unique_ptr<OnexClient>> ClusterNode::Acquire(std::size_t node) {
  if (!IsAlive(node)) {
    return Status::IoError("node " + options_.nodes[node] + " is down");
  }
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pools_[node].empty()) {
      std::unique_ptr<OnexClient> client = std::move(pools_[node].back());
      pools_[node].pop_back();
      return client;
    }
  }
  ONEX_ASSIGN_OR_RETURN(auto endpoint, SplitHostPort(options_.nodes[node]));
  ONEX_ASSIGN_OR_RETURN(OnexClient client,
                        OnexClient::Connect(endpoint.first, endpoint.second));
  ONEX_RETURN_IF_ERROR(client.UpgradeBinary());
  return std::unique_ptr<OnexClient>(new OnexClient(std::move(client)));
}

void ClusterNode::Release(std::size_t node, std::unique_ptr<OnexClient> client) {
  if (!IsAlive(node)) return;  // Dropping the client closes the socket.
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pools_[node].push_back(std::move(client));
}

Result<WireResponse> ClusterNode::CallNode(std::size_t node,
                                           const WireRequest& request) {
  ONEX_ASSIGN_OR_RETURN(std::unique_ptr<OnexClient> client, Acquire(node));
  Result<WireResponse> response = client->CallWire(request);
  // A failed connection's stream position is ambiguous; never pool it.
  if (response.ok()) Release(node, std::move(client));
  return response;
}

void ClusterNode::HandleNodeFailure(std::size_t node) {
  if (node >= options_.nodes.size() || node == options_.self) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!alive_[node]) return;  // Another caller already promoted around it.
    alive_[node] = false;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pools_[node].clear();
  }

  // Promotion sweep: with full replication every survivor holds a copy of
  // every dataset, so re-owning is a pure election — per dataset, the live
  // node with the longest acked journal wins (it is bit-identical to the
  // lost primary at that floor); ties break by HRW weight then index so
  // every coordinator elects the same node.
  std::lock_guard<std::mutex> sweep(promotion_mutex_);
  std::vector<bool> alive_now;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    alive_now = alive_;
  }
  const auto mark_dead = [&](std::size_t j) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      alive_[j] = false;
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      pools_[j].clear();
    }
    alive_now[j] = false;
  };

  std::map<std::string, std::map<std::size_t, std::uint64_t>> floors;
  for (const std::string& name : engine_->ListDatasets()) {
    const Result<SlotDurability> d = engine_->registry().Durability(name);
    if (d.ok() && d->durable) floors[name][options_.self] = d->last_seq;
  }
  WireRequest status_req;
  status_req.command = "REPLSTATUS";
  for (std::size_t j = 0; j < options_.nodes.size(); ++j) {
    if (j == options_.self || !alive_now[j]) continue;
    const Result<WireResponse> r = CallNode(j, status_req);
    if (!r.ok() || !r->body["ok"].as_bool()) {
      // A peer failing mid-sweep just drops out of this election; its own
      // datasets get re-elected when a later request trips over it.
      mark_dead(j);
      continue;
    }
    for (const auto& [name, floor] : r->body["datasets"].as_object()) {
      floors[name][j] = static_cast<std::uint64_t>(floor.as_number());
    }
  }

  std::map<std::string, std::size_t> elected;
  for (const auto& [name, per_node] : floors) {
    std::size_t best = kNoNode;
    std::uint64_t best_floor = 0;
    for (const auto& [candidate, floor] : per_node) {
      if (!alive_now[candidate]) continue;
      if (best == kNoNode || floor > best_floor) {
        best = candidate;
        best_floor = floor;
      } else if (floor == best_floor) {
        const std::uint64_t wb = HrwWeight(name, best);
        const std::uint64_t wc = HrwWeight(name, candidate);
        if (wc > wb || (wc == wb && candidate < best)) best = candidate;
      }
    }
    if (best == kNoNode) continue;
    // Only a winner that differs from the hash's pick needs recording; the
    // rest is what OwnerOf computes anyway.
    std::size_t hrw = kNoNode;
    std::uint64_t hrw_weight = 0;
    for (std::size_t i = 0; i < options_.nodes.size(); ++i) {
      if (!alive_now[i]) continue;
      const std::uint64_t w = HrwWeight(name, i);
      if (hrw == kNoNode || w > hrw_weight) {
        hrw = i;
        hrw_weight = w;
      }
    }
    if (best != hrw) elected[name] = best;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  overrides_ = std::move(elected);
}

json::Value ClusterNode::ExecuteLocal(Engine* engine, Session* session,
                                      const Command& cmd,
                                      const ExecContext& ctx) {
  ExecContext local = ctx;
  local.cluster = nullptr;
  json::Value body = ExecuteCommand(engine, session, cmd, local);
  if (IsReplicatedMutator(ctx.verb) && body["ok"].as_bool()) {
    // Sync replication: the ack floor this write reaches before we answer
    // is exactly what promotion relies on — an acked write exists, bit for
    // bit, on every live peer.
    const Result<std::string> dataset = ctx.verb->dataset(cmd, *session);
    if (dataset.ok()) {
      const Result<SlotDurability> d = engine->registry().Durability(*dataset);
      if (d.ok() && d->durable && d->last_seq > 0) {
        hub_.AwaitReplication(*dataset, d->last_seq);
      }
    }
  }
  return body;
}

WireResponse ClusterNode::ExecuteLocalWire(Engine* engine,
                                           const WireRequest& request,
                                           const ExecContext& ctx) {
  WireResponse out;
  Result<Command> parsed = ParseCommandLine(request.command);
  if (!parsed.ok()) {
    out.body = ErrorResponse(parsed.status());
    return out;
  }
  Command cmd = std::move(parsed).value();
  if (cmd.payload.empty()) cmd.payload = request.values;
  ExecContext local = ctx;
  local.cluster = nullptr;
  local.out_values = &out.values;
  local.verb = FindVerb(cmd.verb);
  Session scratch;  // Shard-side requests always carry dataset= explicitly.
  out.body = ExecuteLocal(engine, &scratch, cmd, local);
  return out;
}

json::Value ClusterNode::RouteSingle(Engine* engine, Session* session,
                                     const std::string& dataset,
                                     const Command& cmd,
                                     const ExecContext& ctx) {
  const bool mutator = IsReplicatedMutator(ctx.verb);
  for (std::size_t attempt = 0; attempt <= options_.nodes.size(); ++attempt) {
    const std::size_t owner = OwnerOf(dataset);
    if (owner == kNoNode) {
      return ErrorResponse(Status::IoError("no live node owns dataset '" +
                                           dataset + "'"));
    }
    if (owner == options_.self) return ExecuteLocal(engine, session, cmd, ctx);
    const Result<WireResponse> response =
        CallNode(owner, BuildForward(cmd, dataset));
    if (response.ok()) {
      if (ctx.out_values != nullptr) {
        ctx.out_values->insert(ctx.out_values->end(), response->values.begin(),
                               response->values.end());
      }
      return response->body;
    }
    HandleNodeFailure(owner);
    if (mutator) {
      // The owner died with the write in flight: it may or may not have
      // journaled (and replicated) it. Surfacing that is the only honest
      // answer — a blind retry could double-apply an APPEND.
      return ErrorResponse(Status::IoError(
          "node " + options_.nodes[owner] + " failed while executing " +
          cmd.verb + " on '" + dataset +
          "'; the write may or may not have applied — verify before retrying"));
    }
    // Idempotent read: loop again against whoever the election promoted.
  }
  return ErrorResponse(Status::IoError("no live node could answer " +
                                       cmd.verb + " for dataset '" + dataset +
                                       "'"));
}

Result<std::vector<WireResponse>> ClusterNode::ScatterPerDataset(
    Engine* engine, const std::vector<std::string>& names,
    const std::vector<WireRequest>& requests, const ExecContext& ctx) {
  std::vector<WireResponse> results(names.size());
  std::vector<bool> done(names.size(), false);
  for (std::size_t round = 0; round <= options_.nodes.size(); ++round) {
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (done[i]) continue;
      const std::size_t owner = OwnerOf(names[i]);
      if (owner == kNoNode) {
        return Status::IoError("no live node owns dataset '" + names[i] + "'");
      }
      groups[owner].push_back(i);
    }
    if (groups.empty()) return results;

    for (const auto& [owner, indices] : groups) {
      if (owner == options_.self) {
        for (const std::size_t i : indices) {
          results[i] = ExecuteLocalWire(engine, requests[i], ctx);
          done[i] = true;
        }
        continue;
      }
      std::vector<WireRequest> batch;
      batch.reserve(indices.size());
      for (const std::size_t i : indices) batch.push_back(requests[i]);
      Result<std::unique_ptr<OnexClient>> client = Acquire(owner);
      if (!client.ok()) {
        HandleNodeFailure(owner);
        continue;  // Next round re-groups these datasets under the winner.
      }
      SendManyOutcome outcome = (*client)->SendManyTracked(batch);
      // Keep every answer that completed before any failure — the per-id
      // completion map is what confines a mid-stream crash to re-asking
      // only the unacknowledged requests.
      for (std::size_t j = 0; j < indices.size(); ++j) {
        if (j < outcome.completed.size() && outcome.completed[j]) {
          results[indices[j]] = std::move(outcome.responses[j]);
          done[indices[j]] = true;
        }
      }
      if (outcome.status.ok()) {
        Release(owner, std::move(client).value());
      } else {
        HandleNodeFailure(owner);
      }
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!done[i]) {
      return Status::IoError("no live node could answer for dataset '" +
                             names[i] + "'");
    }
  }
  return results;
}

json::Value ClusterNode::ScatterMulti(Engine* engine, const Command& cmd,
                                      const ExecContext& ctx) {
  Result<FanOut> plan = PlanFanOut(cmd, ctx.opt);
  if (!plan.ok()) return ErrorResponse(plan.status());
  std::vector<WireRequest> requests;
  requests.reserve(plan->names.size());
  for (const std::string& name : plan->names) {
    requests.push_back(BuildForward(plan->shard, name));
  }
  Result<std::vector<WireResponse>> answers =
      ScatterPerDataset(engine, plan->names, requests, ctx);
  if (!answers.ok()) return ErrorResponse(answers.status());
  return MergeFanOut(cmd, *plan, *answers, ctx.out_values);
}

json::Value ClusterNode::Scatter(Engine* engine, const Command& cmd,
                                 const ExecContext& ctx) {
  Session scratch;
  json::Value v = ExecuteLocal(engine, &scratch, cmd, ctx);

  // One "datasets" entry per dataset (a LIST name or a DATASETS row), taken
  // from its owner when reachable (the owner's prepared flag and tier are
  // the authoritative ones), else from whichever node answered.
  std::map<std::string, json::Value> rows;
  const auto absorb = [&](std::size_t node, const json::Value& body) {
    if (!body["ok"].as_bool()) return;
    for (const json::Value& row : body["datasets"].as_array()) {
      const std::string& name =
          row.is_string() ? row.as_string() : row["name"].as_string();
      if (node == OwnerOf(name) || rows.count(name) == 0) rows[name] = row;
    }
  };
  absorb(options_.self, v);
  // fwd=1 makes each peer answer from its own registry; without it the peer
  // would coordinate the scatter again and wait on this node in turn.
  WireRequest req;
  req.command = cmd.verb + " fwd=1";
  for (std::size_t j = 0; j < options_.nodes.size(); ++j) {
    if (j == options_.self || !IsAlive(j)) continue;
    const Result<WireResponse> r = CallNode(j, req);
    if (!r.ok()) {
      HandleNodeFailure(j);
      continue;
    }
    absorb(j, r->body);
  }

  // The local body keeps its node-level fields (DATASETS' budget and
  // durability summary); its rows become the merged ones.
  json::Value arr = json::Value::MakeArray();
  for (auto& [name, row] : rows) arr.Append(std::move(row));
  v.Set("datasets", std::move(arr));
  return v;
}

json::Value ClusterNode::StatusReport(Engine* engine) {
  (void)engine;
  // Health probe: a dead node found here triggers the same promotion path a
  // failed forward would, which is how the fault harness forces detection
  // at a deterministic point instead of waiting for query traffic.
  WireRequest ping;
  ping.command = "PING";
  for (std::size_t j = 0; j < options_.nodes.size(); ++j) {
    if (j == options_.self || !IsAlive(j)) continue;
    const Result<WireResponse> r = CallNode(j, ping);
    if (!r.ok() || !r->body["ok"].as_bool()) HandleNodeFailure(j);
  }

  json::Value v = Ok();
  v.Set("enabled", true);
  v.Set("self", options_.self);
  json::Value nodes = json::Value::MakeArray();
  json::Value overrides = json::Value::MakeObject();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < options_.nodes.size(); ++i) {
      json::Value row = json::Value::MakeObject();
      row.Set("index", i);
      row.Set("endpoint", options_.nodes[i]);
      row.Set("alive", static_cast<bool>(alive_[i]));
      row.Set("self", i == options_.self);
      nodes.Append(std::move(row));
    }
    for (const auto& [name, node] : overrides_) overrides.Set(name, node);
  }
  v.Set("nodes", std::move(nodes));
  v.Set("overrides", std::move(overrides));
  v.Set("replication", hub_.StatusJson());
  return v;
}

json::Value ClusterNode::Execute(Engine* engine, Session* session,
                                 const Command& cmd, const ExecContext& ctx) {
  // fwd=1 pins a routed verb here: the sending coordinator already routed
  // it. It pins nothing else, so it cannot unblock a blocked verb.
  const bool pinned = cmd.options.count("fwd") != 0;
  switch (ctx.verb->route) {
    case ClusterRoute::kLocal:
      return ExecuteLocal(engine, session, cmd, ctx);
    case ClusterRoute::kStatus:
      return StatusReport(engine);
    case ClusterRoute::kBlocked:
      // A checkpoint would truncate the WAL replicas catch up from, and a
      // DROP on one shard could not be undone on its replicas.
      return ErrorResponse(Status::FailedPrecondition(
          cmd.verb +
          " is node-local state and is disabled in cluster mode (durability "
          "is fixed at startup; checkpointing would truncate the replicated "
          "WAL)"));
    case ClusterRoute::kScatter:
      if (pinned) return ExecuteLocal(engine, session, cmd, ctx);
      return Scatter(engine, cmd, ctx);
    case ClusterRoute::kOwner:
    case ClusterRoute::kSelect:
      break;
  }
  if (pinned) return ExecuteLocal(engine, session, cmd, ctx);
  if (ctx.opt.Has("datasets")) return ScatterMulti(engine, cmd, ctx);
  const Result<std::string> dataset = ctx.verb->dataset(cmd, *session);
  if (!dataset.ok()) {
    // Let the local executor produce its canonical resolution error.
    return ExecuteLocal(engine, session, cmd, ctx);
  }
  json::Value body = RouteSingle(engine, session, *dataset, cmd, ctx);
  // USE is validated on the owner; the session it changes is this one.
  if (ctx.verb->route == ClusterRoute::kSelect && body["ok"].as_bool()) {
    session->dataset = *dataset;
  }
  return body;
}

}  // namespace onex::net
