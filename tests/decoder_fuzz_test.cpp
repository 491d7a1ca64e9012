// Decoder mutation fuzzer: every decoder of durable or trace bytes — the
// service snapshot (machine images plus the balance ledger), the WAL file,
// the binary trace and the line trace — is fed seeded mutations of a valid
// input: truncations, byte flips and field-aware edits, re-sealed with a
// valid CRC so that the decoder itself has to judge them. One oracle for
// all of them: the input is refused (CorruptInput; ContractViolation for
// trace parsing), or what it loads audits clean on every machine and on
// the balance ledger and then serves 200 more audited requests.
//
// Deterministic (fixed seeds), built by the ordinary toolchain, and part
// of the ASan/UBSan lane, where a decoder that reads past its input or an
// audit that indexes out of range fails loudly instead of passing by luck.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/scheduler_persist.hpp"
#include "durability/snapshot.hpp"
#include "durability/wal.hpp"
#include "service/sharded_scheduler.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/trace_io.hpp"

namespace reasched {
namespace {

using Bytes = std::vector<std::uint8_t>;
using durability::CorruptInput;
using durability::DurabilityPolicy;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-fuzz-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::filesystem::remove(path);
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_le(const Bytes& b, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) v |= std::uint64_t{b[at + i]} << (8 * i);
  return v;
}

void put_le(Bytes& b, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// ------------------------------------------------------------ field maps

/// One fixed-width little-endian field of an encoded input.
struct Field {
  std::size_t at = 0;
  int width = 0;
  std::string name;
};

/// Where one hash table sits: its entry-count field and, per entry, the
/// byte range of the entry.
struct Table {
  std::string name;
  std::size_t at = 0;   // the count field
  std::size_t end = 0;  // one past the last entry
  struct Entry {
    std::size_t begin = 0, end = 0;
  };
  std::vector<Entry> entries;
};

/// Walks an encoding in write order and records where each field sits.
struct Walker {
  const Bytes& bytes;
  std::size_t pos = 0;
  std::vector<Field> fields;
  std::vector<Table> tables;

  std::uint64_t take(int width, const std::string& name) {
    fields.push_back(Field{pos, width, name});
    const std::uint64_t v = get_le(bytes, pos, width);
    pos += static_cast<std::size_t>(width);
    return v;
  }
  /// A FlatHashMap's serialize(): the entry count, then the entries.
  template <class Entry>
  void table(const std::string& name, Entry&& entry) {
    Table t{name, pos, 0, {}};
    const std::uint64_t count = take(8, name + " count");
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t begin = pos;
      entry();
      t.entries.push_back({begin, pos});
    }
    t.end = pos;
    tables.push_back(std::move(t));
  }
  template <class Entry>
  void dense(const std::string& name, Entry&& entry) {
    const std::uint64_t count = take(8, name + " count");
    for (std::uint64_t i = 0; i < count; ++i) entry();
  }
};

/// SchedulerPersist::save's layout, field by field.
void walk_image(Walker& w, std::size_t end) {
  w.take(8, "state magic");
  w.take(4, "state version");
  for (const char* name : {"options fingerprint", "n*", "parked count", "audit index"}) {
    w.take(8, name);
  }
  w.table("job table", [&] {
    for (const char* name : {"job id", "original start", "original end", "window start",
                             "window end"}) {
      w.take(8, name);
    }
    w.take(4, "job level");
    w.take(8, "job slot");
    w.take(1, "job parked");
  });
  const std::uint64_t levels = w.take(8, "level count");
  for (std::uint64_t level = 0; level < levels; ++level) {
    const std::string at = "L" + std::to_string(level) + " ";
    w.table(at + "intervals", [&] {
      w.take(8, at + "interval base");
      const std::uint64_t entries = w.take(4, at + "slot entries");
      for (std::uint64_t e = 0; e < entries; ++e) {
        w.take(4, at + "slot offset");
        if ((w.take(1, at + "slot flags") & 2) != 0) w.take(1, at + "slot class");
      }
    });
    w.table(at + "window ledger", [&] {
      w.take(8, at + "window key start");
      w.take(1, at + "window key span");
      w.take(8, at + "window jobs");
      w.take(8, at + "claim cursor");
      w.dense(at + "free slots", [&] { w.take(8, at + "free slot"); });
    });
  }
  ASSERT_EQ(w.pos, end) << "image layout walked off its length";
}

/// ShardedScheduler::save_state's layout: magic, machine count, each
/// machine's image behind its length, then the BalanceLedger.
Walker walk_service_payload(const Bytes& payload) {
  Walker w{payload, 0, {}, {}};
  w.take(8, "service magic");
  const std::uint64_t machines = w.take(4, "machine count");
  for (std::uint64_t m = 0; m < machines; ++m) {
    const std::uint64_t length = w.take(8, "image length");
    walk_image(w, w.pos + length);
  }
  const std::uint64_t windows = w.take(8, "ledger windows");
  for (std::uint64_t i = 0; i < windows; ++i) {
    w.take(8, "ledger window start");
    w.take(8, "ledger window end");
    for (std::uint64_t m = 0; m < machines; ++m) {
      w.dense("ledger pool", [&] { w.take(8, "ledger job"); });
    }
  }
  EXPECT_EQ(w.pos, payload.size()) << "service payload walked off its length";
  return w;
}

/// The WAL file layout (also the binary trace's): 16-byte header, then
/// frames of payload_len u32 | crc32c u32 | records.
std::vector<Field> walk_wal(const Bytes& file) {
  Walker w{file, 0, {}, {}};
  w.take(8, "wal magic");
  w.take(4, "wal version");
  w.take(4, "wal reserved");
  while (w.pos < file.size()) {
    const std::uint64_t length = w.take(4, "frame length");
    w.take(4, "frame crc");
    const std::size_t end = w.pos + length;
    while (w.pos < end) {
      const bool insert = w.take(1, "record type") == 1;
      w.take(8, "record csn");
      w.take(8, "record job");
      if (insert) {
        w.take(8, "record start");
        w.take(8, "record end");
      }
    }
  }
  return w.fields;
}

// ------------------------------------------------------------- sealing

/// write_snapshot's trailer: payload_len u64 | crc32c u32.
Bytes sealed_snapshot(Bytes payload) {
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  payload.resize(payload.size() + 12);
  put_le(payload, len, 8, len);
  put_le(payload, len + 8, 4, crc);
  return payload;
}

/// Recomputes every frame checksum the file's lengths still delimit.
void reseal_wal(Bytes& file) {
  std::size_t pos = 16;
  while (pos + 8 <= file.size()) {
    const std::uint64_t length = get_le(file, pos, 4);
    if (length > file.size() - pos - 8) return;
    put_le(file, pos + 4, 4, crc32c(file.data() + pos + 8, length));
    pos += 8 + length;
  }
}

// ------------------------------------------------------------ mutations

/// One mutated copy of an input, named for the failure message.
struct Mutant {
  std::string what;
  Bytes bytes;
};

/// " (in <field name>)" for the field holding byte `at`, if any.
std::string field_at(const std::vector<Field>& fields, std::size_t at) {
  for (const Field& field : fields) {
    if (field.at <= at && at < field.at + static_cast<std::size_t>(field.width)) {
      return " (in " + field.name + ")";
    }
  }
  return "";
}

std::uint64_t edited(std::uint64_t v, int width, Rng& rng) {
  const int bits = 8 * width;
  switch (rng.uniform(0, 7)) {
    case 0: return 0;
    case 1: return v + 1;
    case 2: return v - 1;
    case 3: return v ^ (std::uint64_t{1} << rng.uniform(0, bits - 1));
    case 4: return ~std::uint64_t{0};
    case 5: return v * 2;
    case 6: return std::uint64_t{1} << (bits - 1);
    default: return rng();
  }
}

/// `cuts` truncations, `flips` single-byte flips and `edits` field edits of
/// `intact`, each passed through `seal`. Field edits sample `fields`.
std::vector<Mutant> mutants(const Bytes& intact, const std::vector<Field>& fields,
                            std::size_t cuts, std::size_t flips, std::size_t edits,
                            std::uint64_t seed, const std::function<Bytes(Bytes)>& seal) {
  Rng rng(seed);
  std::vector<Mutant> out;
  for (std::size_t i = 0; i < cuts; ++i) {
    // Half at field boundaries, half anywhere.
    const std::size_t len = i % 2 == 0 && !fields.empty()
                                ? fields[rng.uniform(0, fields.size() - 1)].at
                                : rng.uniform(0, intact.size() - 1);
    out.push_back({"cut at " + std::to_string(len),
                   seal(Bytes(intact.begin(), intact.begin() + static_cast<long>(len)))});
  }
  for (std::size_t i = 0; i < flips; ++i) {
    Bytes flipped = intact;
    const std::size_t at = rng.uniform(0, intact.size() - 1);
    flipped[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    out.push_back({"byte flip at " + std::to_string(at) + field_at(fields, at),
                   seal(std::move(flipped))});
  }
  for (std::size_t i = 0; i < edits && !fields.empty(); ++i) {
    const Field& field = fields[rng.uniform(0, fields.size() - 1)];
    Bytes changed = intact;
    const std::uint64_t v = edited(get_le(intact, field.at, field.width), field.width, rng);
    put_le(changed, field.at, field.width, v);
    out.push_back({field.name + " at " + std::to_string(field.at) + " := " + std::to_string(v),
                   seal(std::move(changed))});
  }
  return out;
}

/// The first field named `name` whose value satisfies `pred`.
const Field* find_field(const std::vector<Field>& fields, const Bytes& bytes,
                        const std::string& name,
                        const std::function<bool(std::uint64_t)>& pred) {
  for (const Field& field : fields) {
    if (field.name == name && pred(get_le(bytes, field.at, field.width))) return &field;
  }
  return nullptr;
}

// -------------------------------------------------------------- oracle

SchedulerOptions writer_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 32;
  return options;
}

/// The loaded side audits every request: the incremental engine at
/// cadence 1 (also through the recovery replay).
SchedulerOptions audited_options() {
  SchedulerOptions options = writer_options();
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 1;
  return options;
}

/// A service whose factory remembers its machines: after construction the
/// last `machines` built are the service's own (recovery builds a fresh
/// set per snapshot attempt).
struct Service {
  std::vector<ReservationScheduler*> built;
  std::unique_ptr<ShardedScheduler> service;

  Service(unsigned machines, const SchedulerOptions& options,
          std::optional<DurabilityPolicy> wal) {
    ShardedScheduler::Options service_options;
    service_options.shards = machines > 1 ? 2 : 1;
    service_options.wal = std::move(wal);
    service = std::make_unique<ShardedScheduler>(
        machines,
        [this, options] {
          auto machine = std::make_unique<ReservationScheduler>(options);
          built.push_back(machine.get());
          return machine;
        },
        service_options);
  }

  void audit_all() const {
    for (std::size_t m = built.size() - service->machines(); m < built.size(); ++m) {
      built[m]->audit();
    }
    service->audit_balance();
  }
};

/// The oracle's second half: the loaded state audits clean, then serves
/// 200 audited requests (machines audit themselves per request; the
/// ledger is audited incrementally per request and in full at the end).
void audits_and_serves(Service& loaded, std::uint64_t seed, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_NO_THROW(loaded.audit_all());
  ShardedScheduler& service = *loaded.service;
  std::vector<JobId> active;
  std::unordered_set<std::uint64_t> ids;
  const Schedule loaded_jobs = service.snapshot();
  for (const auto& [id, placement] : loaded_jobs.assignments()) {
    active.push_back(id);
    ids.insert(id.value);
  }
  Rng rng(seed);
  std::uint64_t fresh = std::uint64_t{1} << 40;
  for (int i = 0; i < 200; ++i) {
    if (!active.empty() && rng.chance(0.45)) {
      const std::size_t pick = rng.uniform(0, active.size() - 1);
      ASSERT_NO_THROW(service.erase(active[pick])) << "request " << i;
      active[pick] = active.back();
      active.pop_back();
    } else {
      while (ids.count(fresh) != 0) ++fresh;
      const Time span = Time{1} << rng.uniform(0, 9);
      const Time start = span * static_cast<Time>(rng.uniform(0, (1 << 14) / span - 1));
      ASSERT_NO_THROW(service.insert(JobId{fresh}, Window{start, start + span}))
          << "request " << i;
      active.push_back(JobId{fresh});
      ids.insert(fresh++);
    }
    ASSERT_NO_THROW(service.audit_balance_incremental()) << "request " << i;
  }
  ASSERT_NO_THROW(loaded.audit_all());
}

/// Serves a parsed trace on a fresh audited service: each request is
/// served or refused as a precondition violation, then the oracle runs.
void serves_trace(const std::vector<Request>& trace, std::uint64_t seed,
                  const std::string& where) {
  Service fresh(1, audited_options(), std::nullopt);
  for (const Request& r : trace) {
    try {
      if (r.kind == RequestKind::kInsert) {
        fresh.service->insert(r.job, r.window);
      } else {
        fresh.service->erase(r.job);
      }
    } catch (const ContractViolation&) {
      // An id or window the service refuses: the trace's problem.
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": serving the parsed trace threw " << e.what();
      return;
    }
  }
  audits_and_serves(fresh, seed, where);
}

std::vector<Request> churn(std::uint64_t seed, unsigned machines, std::size_t requests) {
  ChurnParams params;
  params.seed = seed;
  params.requests = requests;
  params.target_active = 30 * machines;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 4096;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

// ---------------------------------------------------- service snapshots

/// A durability directory with two snapshots and the full log, kept as
/// bytes so that every case starts from the same files. Cases damage the
/// newest snapshot; a refused one falls back to the older.
struct SnapshotRig {
  unsigned machines = 1;
  TempDir dir;
  DurabilityPolicy policy;
  std::uint64_t csn = 0;
  std::uint64_t older_csn = 0;
  std::string snapshot_path;
  Bytes payload;  // the snapshot without its trailer
  Bytes wal;
  std::vector<Field> fields;
  std::vector<Table> tables;

  explicit SnapshotRig(unsigned m, std::uint64_t seed) : machines(m) {
    policy.dir = dir.path;
    policy.snapshot_every = 100;
    policy.keep_snapshots = 2;
    {
      Service writer(machines, writer_options(), policy);
      for (const Request& r : churn(seed, machines, 300)) {
        if (r.kind == RequestKind::kInsert) {
          writer.service->insert(r.job, r.window);
        } else {
          writer.service->erase(r.job);
        }
      }
    }
    const std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
    EXPECT_EQ(snaps.size(), 2u);
    if (snaps.size() < 2) return;
    csn = snaps[0];
    older_csn = snaps[1];
    snapshot_path = durability::snapshot_path(dir.path, csn);
    const Bytes file = read_bytes(snapshot_path);
    payload.assign(file.begin(), file.end() - 12);
    wal = read_bytes(durability::wal_path(dir.path));
    Walker walked = walk_service_payload(payload);
    fields = std::move(walked.fields);
    tables = std::move(walked.tables);
    // Recovery never writes a snapshot of its own.
    policy.snapshot_every = 0;
  }

  /// Recovers from `snapshot` plus the intact log; returns whether the
  /// snapshot loaded, after checking the oracle either way.
  bool recover(const Bytes& snapshot, std::uint64_t seed, const std::string& where) {
    write_bytes(snapshot_path, snapshot);
    write_bytes(durability::wal_path(dir.path), wal);
    std::unique_ptr<Service> loaded;
    try {
      loaded = std::make_unique<Service>(machines, audited_options(), policy);
    } catch (const CorruptInput&) {
      return false;  // the log suffix does not extend the loaded state
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": recovery threw " << e.what();
      return false;
    }
    const durability::RecoveryReport& report = loaded->service->recovery_report();
    const bool took = report.snapshot_csn == csn;
    EXPECT_TRUE(took || (report.snapshots_skipped == 1 && report.snapshot_csn == older_csn))
        << where;
    audits_and_serves(*loaded, seed, where);
    return took;
  }

  void fuzz(std::uint64_t seed) {
    ASSERT_FALSE(payload.empty());
    ASSERT_TRUE(recover(sealed_snapshot(payload), seed, "intact"));
    std::size_t loaded = 0;
    std::size_t refused = 0;
    for (const Mutant& m : mutants(payload, fields, 30, 70, 160, seed, sealed_snapshot)) {
      (recover(m.bytes, seed, m.what) ? loaded : refused) += 1;
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Both outcomes occur: the mutations reach past the first check.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(refused, 0u);
  }

  /// A field edit the loader must refuse.
  void expect_refused(const std::string& name, const std::function<bool(std::uint64_t)>& pred,
                      std::uint64_t value) {
    const Field* field = find_field(fields, payload, name, pred);
    ASSERT_NE(field, nullptr) << "layout assumption: a " << name << " field";
    Bytes changed = payload;
    put_le(changed, field->at, field->width, value);
    expect_refused(changed, name + " := " + std::to_string(value));
  }
  void expect_refused(const Bytes& changed, const std::string& where) {
    EXPECT_FALSE(recover(sealed_snapshot(changed), 7, where)) << where << " loaded";
  }

  /// The first table named `name` that has entries.
  const Table& table(const std::string& name) {
    for (const Table& t : tables) {
      if (t.name == name && !t.entries.empty()) return t;
    }
    ADD_FAILURE() << "layout assumption: a " << name << " table with entries";
    return tables.front();
  }

  /// The payload with one more entry at the end of table `name`: a copy
  /// of its first entry, changed by `edit` (which sees the entry's bytes).
  Bytes with_extra_entry(const std::string& name, const std::function<void(Bytes&)>& edit) {
    const Table& t = table(name);
    Bytes extra(payload.begin() + static_cast<long>(t.entries.front().begin),
                payload.begin() + static_cast<long>(t.entries.front().end));
    edit(extra);
    Bytes changed = payload;
    changed.insert(changed.begin() + static_cast<long>(t.end), extra.begin(), extra.end());
    put_le(changed, t.at, 8, t.entries.size() + 1);
    return resized(std::move(changed), t.at);
  }

  /// Window ledger `name` with one more entry: a copy of its first one
  /// under the key {start, span_log}. No job names the new window, so only
  /// the decoder and I2 see it.
  Bytes with_extra_window(const std::string& name, Time start, std::uint8_t span_log) {
    return with_extra_entry(name, [&](Bytes& entry) {
      put_le(entry, 0, 8, static_cast<std::uint64_t>(start));
      entry[8] = span_log;
    });
  }

  /// `changed`, a copy of the payload that grew or shrank at byte `at`,
  /// with the length of the image holding that byte corrected to match.
  Bytes resized(Bytes changed, std::size_t at) const {
    const Field* length = nullptr;
    for (const Field& f : fields) {
      if (f.name == "image length" && f.at < at) length = &f;
    }
    EXPECT_NE(length, nullptr);
    if (length != nullptr) {
      put_le(changed, length->at, 8,
             get_le(changed, length->at, 8) + changed.size() - payload.size());
    }
    return changed;
  }
};

TEST(DecoderFuzz, OneMachineServiceSnapshot) {
  SnapshotRig rig(1, 101);
  rig.fuzz(11);
}

TEST(DecoderFuzz, ThreeMachineServiceSnapshot) {
  SnapshotRig rig(3, 103);
  rig.fuzz(13);
}

TEST(DecoderFuzz, SlotFlagBitsBeyondTheTwoKnownAreRefused) {
  // An assigned slot whose flags also claim lower occupancy is a state no
  // scheduler writes: the audit on load refuses it. Flag bits above the
  // two the format defines were once ignored; the decoder refuses them.
  SnapshotRig rig(1, 101);
  const auto assigned = [](std::uint64_t flags) { return flags == 2; };
  rig.expect_refused("L1 slot flags", assigned, 3);
  rig.expect_refused("L1 slot flags", assigned, 6);
  rig.expect_refused("L2 slot flags", assigned, 0x82);
}

TEST(DecoderFuzz, WindowKeyOutsideTheLevelClassesIsRefused) {
  // A window-ledger key whose span is no class of its level would index
  // the audit's per-class census out of range; the decoder refuses it.
  // Level 1's classes are spans 2^6..2^8, level 2's are 2^9..2^62.
  SnapshotRig rig(3, 103);
  rig.expect_refused(rig.with_extra_window("L1 window ledger", 0, 5), "L1 key span 2^5");
  rig.expect_refused(rig.with_extra_window("L1 window ledger", 0, 9), "L1 key span 2^9");
  rig.expect_refused(rig.with_extra_window("L2 window ledger", 0, 8), "L2 key span 2^8");
  rig.expect_refused(rig.with_extra_window("L2 window ledger", 0, 63), "L2 key span 2^63");
  // An in-class key that no job names: the decode takes it, the audit
  // refuses it.
  rig.expect_refused(rig.with_extra_window("L1 window ledger", 1 << 20, 6), "L1 jobless key");
}

TEST(DecoderFuzz, ScalarsAndBasesTheAuditOwnsAreRefused) {
  // Fields the decoder takes as they come, because the audit judges them:
  // n* (a zero n* divides by zero in the trim, one that is no power of two
  // trims to unaligned windows, a huge one overflows the trim span), and
  // an interval base moved off its alignment.
  SnapshotRig rig(1, 101);
  const auto any = [](std::uint64_t) { return true; };
  rig.expect_refused("n*", any, 0);
  rig.expect_refused("n*", any, 24);
  rig.expect_refused("n*", any, std::uint64_t{1} << 61);
  // An interval with no slot entries, its base moved to the top of Time:
  // unaligned, and the audit's walk over its slots would overflow. (An
  // interval entry is its base, 8 bytes, then the slot-entry count.)
  const Field* entries = find_field(rig.fields, rig.payload, "L1 slot entries",
                                    [](std::uint64_t v) { return v == 0; });
  ASSERT_NE(entries, nullptr) << "layout assumption: an interval without slot entries";
  Bytes changed = rig.payload;
  put_le(changed, entries->at - 8, 8, INT64_MAX - 1);
  rig.expect_refused(changed, "empty interval at the top of Time");
}

/// Decodes machine 0's image of a service payload on its own and returns
/// why SchedulerPersist::load refused it ("" if it loaded).
std::string image_refusal(const SnapshotRig& rig, const Bytes& payload) {
  const Field* length = find_field(rig.fields, rig.payload, "image length",
                                   [](std::uint64_t) { return true; });
  EXPECT_NE(length, nullptr);
  if (length == nullptr) return "";
  const auto* image = reinterpret_cast<const std::byte*>(payload.data() + length->at + 8);
  durability::ByteSource source(image, get_le(payload, length->at, 8));
  ReservationScheduler machine(writer_options());
  try {
    durability::SchedulerPersist::load(machine, source);
  } catch (const CorruptInput& e) {
    return e.what();
  }
  return "";
}

TEST(DecoderFuzz, TablesHoldEachKeyOnceWithinTheInput) {
  // Each hash table is a count, then its entries, loaded through the
  // table's own insert path. The decoder refuses a count beyond the input,
  // a key listed twice and two jobs on one slot; recovery falls back to
  // the older snapshot.
  SnapshotRig rig(1, 101);
  const auto refused_for = [&](const Bytes& changed, const std::string& reason,
                               const std::string& where) {
    EXPECT_NE(image_refusal(rig, changed).find(reason), std::string::npos)
        << where << ": refused for \"" << image_refusal(rig, changed) << "\"";
    rig.expect_refused(changed, where);
  };
  const auto any = [](std::uint64_t) { return true; };
  for (const char* count : {"job table count", "L1 intervals count", "L2 window ledger count"}) {
    const Field* field = find_field(rig.fields, rig.payload, count, any);
    ASSERT_NE(field, nullptr) << "layout assumption: a " << count << " field";
    for (const std::uint64_t huge : {rig.payload.size(), std::uint64_t{1} << 40}) {
      Bytes changed = rig.payload;
      put_le(changed, field->at, 8, huge);
      refused_for(changed, "count exceeds the input",
                  std::string(count) + " := " + std::to_string(huge));
    }
  }
  const auto unchanged = [](Bytes&) {};
  refused_for(rig.with_extra_entry("job table", unchanged), "duplicate key", "a job id twice");
  refused_for(rig.with_extra_entry("L1 intervals", unchanged), "duplicate key",
              "an interval base twice");
  refused_for(rig.with_extra_entry("L1 window ledger", unchanged), "duplicate key",
              "a window key twice");
  // A copy of job 0 under a fresh id: a second job on job 0's slot.
  refused_for(rig.with_extra_entry("job table",
                                   [](Bytes& entry) { put_le(entry, 0, 8, 1ULL << 50); }),
              "two jobs on one slot", "two jobs on one slot");
  // An image of the owner-key format (state version 3).
  const Field* version = find_field(rig.fields, rig.payload, "state version", any);
  ASSERT_NE(version, nullptr);
  Bytes v3 = rig.payload;
  put_le(v3, version->at, 4, 3);
  refused_for(v3, "unsupported state version", "state version 3");
  // A slot cell listed twice: a copy of an interval's first cell entry
  // right after it.
  const Field* cells = find_field(rig.fields, rig.payload, "L1 slot entries",
                                  [](std::uint64_t v) { return v > 0; });
  ASSERT_NE(cells, nullptr) << "layout assumption: an interval with slot entries";
  const std::size_t first = cells->at + 4;
  const std::size_t width = (rig.payload[first + 4] & 2) != 0 ? 6 : 5;
  Bytes twice = rig.payload;
  put_le(twice, cells->at, 4, get_le(twice, cells->at, 4) + 1);
  twice.insert(twice.begin() + static_cast<long>(first + width),
               rig.payload.begin() + static_cast<long>(first),
               rig.payload.begin() + static_cast<long>(first + width));
  refused_for(rig.resized(std::move(twice), cells->at), "slot offsets not ascending",
              "a slot cell twice");
}

TEST(DecoderFuzz, SlotClassOutsideTheLevelIsRefused) {
  // An assigned cell stores its owner's span class, which indexes the
  // interval's per-class counters: one at or past the level's class count
  // (3 at level 1, 54 at level 2) is refused by the decoder. An in-range
  // class other than the owner's decodes, and the audit refuses it.
  SnapshotRig rig(3, 103);
  const auto is = [](std::uint64_t want) {
    return [want](std::uint64_t v) { return v == want; };
  };
  rig.expect_refused("L1 slot class", is(0), 3);
  rig.expect_refused("L2 slot class", is(0), 54);
  rig.expect_refused("L2 slot class", is(0), 0xFF);
  rig.expect_refused("L1 slot class", is(0), 2);
}

TEST(DecoderFuzz, FreeSetMissingAFreeSlotIsRefused) {
  // A window's free set must hold exactly its assigned cells that no job
  // of the level sits on. An image whose free set leaves one of them out
  // decodes, and the audit refuses it; recovery falls back.
  SnapshotRig rig(1, 101);
  const Field* count = find_field(rig.fields, rig.payload, "L1 free slots count",
                                  [](std::uint64_t v) { return v > 0; });
  ASSERT_NE(count, nullptr) << "layout assumption: a window with a free slot";
  const std::uint64_t n = get_le(rig.payload, count->at, 8);
  Bytes changed = rig.payload;
  put_le(changed, count->at, 8, n - 1);
  const auto last = changed.begin() + static_cast<long>(count->at + 8 * n);
  changed.erase(last, last + 8);
  changed = rig.resized(std::move(changed), count->at);
  EXPECT_NE(image_refusal(rig, changed).find("free set disagrees"), std::string::npos)
      << "refused for \"" << image_refusal(rig, changed) << "\"";
  rig.expect_refused(changed, "a free slot left out");
}

// ---------------------------------------------------------------- WAL

TEST(DecoderFuzz, WalFile) {
  constexpr unsigned kMachines = 3;
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 512;  // many frames
  {
    Service writer(kMachines, writer_options(), policy);
    writer.service->apply(churn(107, kMachines, 300));
  }
  const Bytes intact = read_bytes(durability::wal_path(dir.path));
  const std::vector<Field> fields = walk_wal(intact);
  const auto resealed = [](Bytes file) {
    reseal_wal(file);
    return file;
  };
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (const Mutant& m : mutants(intact, fields, 20, 50, 110, 17, resealed)) {
    write_bytes(durability::wal_path(dir.path), m.bytes);
    std::unique_ptr<Service> recovered;
    try {
      recovered = std::make_unique<Service>(kMachines, audited_options(), policy);
    } catch (const CorruptInput&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << m.what << ": recovery threw " << e.what();
      continue;
    }
    ++loaded;
    audits_and_serves(*recovered, 17, m.what);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

// -------------------------------------------------------------- traces

TEST(DecoderFuzz, BinaryTrace) {
  TempDir dir;
  const std::string path = dir.path + "/trace.wal";
  write_trace_wal(path, churn(109, 1, 300));
  const Bytes intact = read_bytes(path);
  const std::vector<Field> fields = walk_wal(intact);
  const auto resealed = [](Bytes file) {
    reseal_wal(file);
    return file;
  };
  for (const Mutant& m : mutants(intact, fields, 20, 40, 100, 19, resealed)) {
    write_bytes(path, m.bytes);
    std::vector<Request> trace;
    try {
      trace = read_trace_wal(path);
    } catch (const ContractViolation&) {
      continue;
    }
    serves_trace(trace, 19, m.what);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecoderFuzz, LineTrace) {
  std::ostringstream written;
  write_trace(written, churn(113, 1, 200));
  const std::string intact = written.str();
  // Token edits: every number is a field.
  std::vector<std::pair<std::size_t, std::size_t>> numbers;  // [begin, end)
  for (std::size_t i = 0; i < intact.size();) {
    if (std::isdigit(static_cast<unsigned char>(intact[i])) || intact[i] == '-') {
      std::size_t j = i + 1;
      while (j < intact.size() && std::isdigit(static_cast<unsigned char>(intact[j]))) ++j;
      numbers.emplace_back(i, j);
      i = j;
    } else {
      ++i;
    }
  }
  const std::vector<std::string> edge = {
      "0", "-1", "1", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "18446744073709551615", "4611686018427387904",
      "9223372036854775744", "-4611686018427387904", "99999999999999999999", ""};
  const std::string noise = "0123456789 -IDx#\n";
  Rng rng(23);
  std::vector<std::pair<std::string, std::string>> cases;  // what, text
  for (int i = 0; i < 30; ++i) {
    const std::size_t len = rng.uniform(0, intact.size());
    cases.emplace_back("cut at " + std::to_string(len), intact.substr(0, len));
  }
  for (int i = 0; i < 60; ++i) {
    std::string text = intact;
    const std::size_t at = rng.uniform(0, text.size() - 1);
    text[at] = noise[rng.uniform(0, noise.size() - 1)];
    cases.emplace_back("char at " + std::to_string(at) + " := '" + text[at] + "'", text);
  }
  for (int i = 0; i < 120; ++i) {
    const auto [begin, end] = numbers[rng.uniform(0, numbers.size() - 1)];
    std::string text = intact;
    const std::string& value = edge[rng.uniform(0, edge.size() - 1)];
    text.replace(begin, end - begin, value);
    cases.emplace_back("number at " + std::to_string(begin) + " := " + value, text);
  }
  for (const auto& [what, text] : cases) {
    std::istringstream in(text);
    std::vector<Request> trace;
    try {
      trace = read_trace(in);
    } catch (const ContractViolation&) {
      continue;
    }
    serves_trace(trace, 23, what);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace reasched
