#include "onex/net/replication.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "onex/common/string_utils.h"
#include "onex/net/client.h"

namespace onex::net {

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

std::string EncodeReplApplyText(const std::string& dataset,
                                std::uint64_t first_seq,
                                const std::vector<std::string>& lines) {
  std::string blob;
  for (const std::string& line : lines) blob += line;
  std::string text = StrFormat(
      "REPLAPPLY dataset=%s first=%llu count=%zu crc=%016llx\n",
      dataset.c_str(), static_cast<unsigned long long>(first_seq),
      lines.size(), static_cast<unsigned long long>(Fnv1a64(blob)));
  text += blob;
  return text;
}

Result<std::vector<WalRecord>> DecodeWalBatchBlob(std::string_view blob,
                                                  std::uint64_t crc,
                                                  std::uint64_t first_seq,
                                                  std::uint64_t count) {
  if (Fnv1a64(blob) != crc) {
    return Status::ParseError(
        "replication batch checksum mismatch; dropping the whole batch");
  }
  if (!blob.empty() && blob.back() != '\n') {
    return Status::ParseError(
        "replication batch does not end at a record boundary");
  }
  std::vector<WalRecord> records;
  std::size_t pos = 0;
  while (pos < blob.size()) {
    const std::size_t nl = blob.find('\n', pos);
    // back() == '\n' above guarantees a hit; keep the check for clarity.
    if (nl == std::string_view::npos) {
      return Status::ParseError(
          "replication batch does not end at a record boundary");
    }
    ONEX_ASSIGN_OR_RETURN(WalRecord record,
                          DecodeWalRecord(blob.substr(pos, nl - pos)));
    if (record.seq != first_seq + records.size()) {
      return Status::ParseError(StrFormat(
          "replication batch is not contiguous: record %zu has seq %llu, "
          "expected %llu",
          records.size(), static_cast<unsigned long long>(record.seq),
          static_cast<unsigned long long>(first_seq + records.size())));
    }
    records.push_back(std::move(record));
    pos = nl + 1;
  }
  if (records.size() != count) {
    return Status::ParseError(StrFormat(
        "replication batch declared %llu records but carried %zu",
        static_cast<unsigned long long>(count), records.size()));
  }
  return records;
}

// --- ReplicationHub --------------------------------------------------------

ReplicationHub::ReplicationHub(Engine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {
  for (const std::string& peer : options_.peers) {
    auto link = std::make_unique<Link>();
    link->label = peer;
    if (Result<std::pair<std::string, std::uint16_t>> endpoint =
            SplitHostPort(peer);
        endpoint.ok()) {
      std::tie(link->host, link->port) = *std::move(endpoint);
    } else {
      // Never dialed; CLUSTER shows why (ClusterNode::Start refuses it).
      link->alive = false;
      link->last_error = endpoint.status().message();
    }
    links_.push_back(std::move(link));
  }
  // Links before the sink, sink before hints: from here on links_ and the
  // sink are immutable, and every append lands in a link's queue.
  engine_->registry().SetWalSink(
      [this](const std::string& dataset, const WalRecord& record,
             const std::string& encoded) {
        auto line = std::make_shared<const std::string>(encoded);
        for (auto& link : links_) {
          std::lock_guard<std::mutex> lock(link->mutex);
          if (link->stop || !link->alive) continue;
          link->queue.push_back(Item{dataset, record.seq, line});
          link->cv.notify_all();
        }
      });
  // Datasets that were recovered before the hub existed never fire the
  // sink until their next write; a null-line hint makes each link
  // subscribe and catch the peer up from the local file right away.
  for (const std::string& name : engine_->ListDatasets()) {
    for (auto& link : links_) {
      std::lock_guard<std::mutex> lock(link->mutex);
      link->queue.push_back(Item{name, 0, nullptr});
      link->cv.notify_all();
    }
  }
}

ReplicationHub::~ReplicationHub() { Stop(); }

void ReplicationHub::Start() {
  if (started_) return;
  started_ = true;
  for (auto& link : links_) {
    link->thread = std::thread(&ReplicationHub::LinkMain, this, link.get());
  }
}

void ReplicationHub::Stop() {
  engine_->registry().SetWalSink(nullptr);
  for (auto& link : links_) {
    {
      std::lock_guard<std::mutex> lock(link->mutex);
      link->stop = true;
    }
    link->cv.notify_all();
    link->ack_cv.notify_all();
  }
  for (auto& link : links_) {
    if (link->thread.joinable()) link->thread.join();
  }
}

void ReplicationHub::MarkDead(Link* link, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(link->mutex);
    if (!link->alive) return;
    link->alive = false;
    link->last_error = why;
  }
  link->cv.notify_all();
  link->ack_cv.notify_all();
}

void ReplicationHub::MarkPeerDead(const std::string& endpoint,
                                  const std::string& why) {
  for (auto& link : links_) {
    if (link->label == endpoint) MarkDead(link.get(), why);
  }
}

void ReplicationHub::LinkMain(Link* link) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(link->mutex);
      if (link->stop || !link->alive) return;
    }
    Result<OnexClient> client = OnexClient::Connect(link->host, link->port);
    Status up = client.ok() ? client->UpgradeBinary() : client.status();
    if (!up.ok()) {
      // The peer has not come up yet (cluster nodes start concurrently);
      // keep knocking until it listens, we are stopped, or an ack timeout
      // declared the link dead.
      std::unique_lock<std::mutex> lock(link->mutex);
      link->last_error = up.message();
      link->cv.wait_for(lock, options_.connect_backoff, [link] {
        return link->stop || !link->alive;
      });
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(link->mutex);
      link->connected = true;
    }
    Status err = ServeLink(link, &*client);
    client->Close();
    if (err.ok()) return;  // Clean stop.
    // Fail-stop: a link that broke mid-stream never silently rejoins —
    // AwaitReplication must not count a peer whose floor is in doubt.
    MarkDead(link, err.message());
    return;
  }
}

Status ReplicationHub::ServeLink(Link* link, OnexClient* client) {
  // The thread's own view of each dataset's acked floor; link->floors
  // mirrors it for AwaitReplication/StatusJson.
  std::map<std::string, std::uint64_t> floors;

  auto subscribe = [&](const std::string& dataset) -> Status {
    if (floors.count(dataset) != 0) return Status::OK();
    WireRequest hello;
    hello.command = "REPLHELLO dataset=" + dataset;
    ONEX_ASSIGN_OR_RETURN(WireResponse response, client->CallWire(hello));
    if (!response.body["ok"].as_bool()) {
      return Status::IoError("peer " + link->label + " rejected REPLHELLO: " +
                             response.body["error"].as_string());
    }
    const auto floor =
        static_cast<std::uint64_t>(response.body["last_seq"].as_number());
    floors[dataset] = floor;
    {
      std::lock_guard<std::mutex> lock(link->mutex);
      link->floors[dataset] = floor;
    }
    link->ack_cv.notify_all();
    return Status::OK();
  };

  for (;;) {
    std::vector<Item> batch;
    {
      std::unique_lock<std::mutex> lock(link->mutex);
      link->cv.wait(lock, [link] {
        return link->stop || !link->alive || !link->queue.empty();
      });
      if (link->stop || !link->alive) return Status::OK();
      const std::string dataset = link->queue.front().dataset;
      while (!link->queue.empty() &&
             link->queue.front().dataset == dataset &&
             batch.size() < options_.batch_records) {
        batch.push_back(std::move(link->queue.front()));
        link->queue.pop_front();
      }
    }
    const std::string dataset = batch.front().dataset;
    ONEX_RETURN_IF_ERROR(subscribe(dataset));

    const bool hinted =
        std::any_of(batch.begin(), batch.end(),
                    [](const Item& item) { return item.line == nullptr; });
    std::uint64_t floor = floors[dataset];
    std::vector<std::string> lines;
    std::uint64_t first = 0;
    bool contiguous = true;
    for (const Item& item : batch) {
      if (item.line == nullptr || item.seq <= floor) continue;
      if (lines.empty()) {
        first = item.seq;
        contiguous = (item.seq == floor + 1);
      }
      lines.push_back(*item.line);
    }
    if (hinted || !contiguous) {
      // The peer is behind the live window (fresh subscription, or records
      // predating the sink): replay from the local WAL file. Everything in
      // this batch was journaled before its sink event fired, so the file
      // covers the batch too.
      ONEX_RETURN_IF_ERROR(CatchUpFromFile(link, client, dataset));
      {
        std::lock_guard<std::mutex> lock(link->mutex);
        floors[dataset] = link->floors[dataset];
      }
      continue;
    }
    if (lines.empty()) continue;
    ONEX_RETURN_IF_ERROR(ShipBatch(link, client, dataset, first, lines));
    floors[dataset] = first + lines.size() - 1;
  }
}

Status ReplicationHub::ShipBatch(Link* link, OnexClient* client,
                                 const std::string& dataset,
                                 std::uint64_t first_seq,
                                 const std::vector<std::string>& lines) {
  WireRequest request;
  request.command = EncodeReplApplyText(dataset, first_seq, lines);
  ONEX_ASSIGN_OR_RETURN(WireResponse response, client->CallWire(request));
  if (!response.body["ok"].as_bool()) {
    return Status::IoError("peer " + link->label + " rejected REPLAPPLY: " +
                           response.body["error"].as_string());
  }
  const auto acked =
      static_cast<std::uint64_t>(response.body["last_seq"].as_number());
  {
    std::lock_guard<std::mutex> lock(link->mutex);
    std::uint64_t& floor = link->floors[dataset];
    floor = std::max(floor, acked);
  }
  link->ack_cv.notify_all();
  return Status::OK();
}

Status ReplicationHub::CatchUpFromFile(Link* link, OnexClient* client,
                                       const std::string& dataset) {
  std::uint64_t floor;
  {
    std::lock_guard<std::mutex> lock(link->mutex);
    floor = link->floors[dataset];
  }
  ONEX_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      engine_->registry().JournalRecordsAfter(dataset, floor));
  std::vector<std::string> lines;
  std::uint64_t first = 0;
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kCheckpoint) {
      return Status::FailedPrecondition(
          "dataset '" + dataset +
          "' has checkpoint history; cluster nodes must run with "
          "checkpointing disabled so the full log is shippable");
    }
    if (lines.empty()) {
      first = record.seq;
      if (record.seq != floor + 1) {
        return Status::FailedPrecondition(StrFormat(
            "wal for '%s' starts at seq %llu but the peer floor is %llu; "
            "the log was rotated and cannot replicate bit-identically",
            dataset.c_str(), static_cast<unsigned long long>(record.seq),
            static_cast<unsigned long long>(floor)));
      }
    }
    lines.push_back(EncodeWalRecord(record));
    if (lines.size() == options_.batch_records) {
      ONEX_RETURN_IF_ERROR(ShipBatch(link, client, dataset, first, lines));
      floor = first + lines.size() - 1;
      lines.clear();
    }
  }
  if (!lines.empty()) {
    ONEX_RETURN_IF_ERROR(ShipBatch(link, client, dataset, first, lines));
  }
  return Status::OK();
}

std::size_t ReplicationHub::AwaitReplication(const std::string& dataset,
                                             std::uint64_t seq) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.ack_timeout;
  std::size_t acked = 0;
  for (auto& link : links_) {
    bool timed_out = false;
    bool has = false;
    {
      std::unique_lock<std::mutex> lock(link->mutex);
      const bool done = link->ack_cv.wait_until(lock, deadline, [&] {
        if (link->stop || !link->alive) return true;
        auto it = link->floors.find(dataset);
        return it != link->floors.end() && it->second >= seq;
      });
      timed_out = !done;
      auto it = link->floors.find(dataset);
      has = link->alive && !link->stop && it != link->floors.end() &&
            it->second >= seq;
    }
    if (timed_out) {
      MarkDead(link.get(), StrFormat(
          "ack timeout waiting for %s@%llu", dataset.c_str(),
          static_cast<unsigned long long>(seq)));
      continue;
    }
    if (has) ++acked;
  }
  return acked;
}

json::Value ReplicationHub::StatusJson() const {
  json::Value peers = json::Value::MakeArray();
  for (const auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mutex);
    json::Value row = json::Value::MakeObject();
    row.Set("peer", link->label);
    row.Set("alive", link->alive);
    row.Set("connected", link->connected);
    if (!link->last_error.empty()) row.Set("error", link->last_error);
    json::Value floors = json::Value::MakeObject();
    for (const auto& [dataset, floor] : link->floors) {
      floors.Set(dataset, floor);
    }
    row.Set("floors", std::move(floors));
    peers.Append(std::move(row));
  }
  return peers;
}

}  // namespace onex::net
