#include "stcomp/stream/fleet_compressor.h"

#include <atomic>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/timer.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

namespace {

std::string ResolveInstance(std::string instance) {
  if (!instance.empty()) {
    return instance;
  }
  static std::atomic<uint64_t> sequence{0};
  return "fleet-" + std::to_string(sequence.fetch_add(1));
}

FleetCompressor::AppendSink StoreSink(TrajectoryStore* store) {
  STCOMP_CHECK(store != nullptr);
  return [store](const std::string& object_id, const TimedPoint& point) {
    return store->Append(object_id, point);
  };
}

}  // namespace

FleetCompressor::FleetCompressor(
    std::function<std::unique_ptr<OnlineCompressor>()> factory,
    TrajectoryStore* store, const IngestPolicy& policy, std::string instance)
    : FleetCompressor(std::move(factory), StoreSink(store), policy,
                      std::move(instance)) {}

FleetCompressor::FleetCompressor(
    std::function<std::unique_ptr<OnlineCompressor>()> factory,
    AppendSink sink, const IngestPolicy& policy, std::string instance)
    : factory_(std::move(factory)),
      sink_(std::move(sink)),
      policy_(policy),
      instance_(ResolveInstance(std::move(instance))) {
  STCOMP_CHECK(factory_ != nullptr);
  STCOMP_CHECK(sink_ != nullptr);
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels{{"compressor", instance_}};
  fixes_in_ = registry.GetCounter("stcomp_stream_fixes_in_total", labels);
  fixes_out_ = registry.GetCounter("stcomp_stream_fixes_out_total", labels);
  active_objects_gauge_ =
      registry.GetGauge("stcomp_stream_active_objects", labels);
  buffered_points_gauge_ =
      registry.GetGauge("stcomp_stream_buffered_points", labels);
  push_seconds_ = registry.GetHistogram("stcomp_stream_push_seconds", labels,
                                        obs::LatencyBucketsSeconds());
  ingest_counters_ = IngestCounters::ForInstance(instance_);
}

Status FleetCompressor::Drain(std::string_view object_id,
                              ObjectState* state,
                              std::vector<TimedPoint>* committed) {
  // Error-consistent accounting: count and remove exactly the points the
  // store accepted, so a failed Append mid-drain neither inflates fixes_out
  // nor leaves accepted points queued for a double-append on retry. The
  // un-appended tail stays in `committed` for the caller to inspect.
  size_t appended = 0;
  Status status = Status::Ok();
  if (!committed->empty()) {
    // The sink takes const std::string& (store API); one key string per
    // non-empty batch, never one per fix.
    const std::string id(object_id);
    for (const TimedPoint& point : *committed) {
      status = sink_(id, point);
      if (!status.ok()) {
        break;
      }
      ++appended;
    }
  }
  if (appended > 0) {
    fixes_out_->Increment(appended);
    state->fixes_out += appended;
    // kFleetDrain, not kStoreAppend: the store emits its own kStoreAppend
    // (arg0 = boundary) per accepted point; this is the fleet-level batch
    // summary with different args, so it needs its own code.
    STCOMP_FLIGHT_EVENT(kFleetDrain, object_id, appended, state->fixes_out);
  }
  committed->erase(committed->begin(),
                   committed->begin() + static_cast<ptrdiff_t>(appended));
  return status;
}

Status FleetCompressor::Push(std::string_view object_id,
                             const TimedPoint& fix) {
  STCOMP_SCOPED_TIMER_SAMPLED(push_seconds_);
  // Head-sampled root: one in TraceBuffer::SampledRootPeriod() pushes
  // records its whole gate → compressor → store span tree.
  STCOMP_TRACE_SPAN_SAMPLED("fleet.push", object_id);
  auto it = compressors_.find(object_id);
  if (it == compressors_.end()) {
    // Only a brand-new object pays for key materialization; steady-state
    // pushes resolve heterogeneously through std::less<>.
    it = compressors_
             .emplace(std::string(object_id),
                      ObjectState{factory_(),
                                  IngestGate(policy_, ingest_counters_,
                                             std::string(object_id))})
             .first;
    STCOMP_IF_METRICS(active_objects_gauge_->Set(
        static_cast<double>(compressors_.size())));
  }
  fixes_in_->Increment();
  ++it->second.fixes_in;
  if (it->second.fixes_in == 1) {
    // Flight events mark transitions, not steady-state traffic: recording
    // every fix would lap the ring in milliseconds at fleet rates and
    // erase the history a post-mortem dump needs. The object's arrival
    // plus the per-batch kFleetDrain / gate-fault / WAL events below it
    // reconstruct the steady state.
    STCOMP_FLIGHT_EVENT(kFleetPush, object_id, 1, 0);
  }
  admitted_.clear();
  STCOMP_RETURN_IF_ERROR(it->second.gate.Admit(fix, &admitted_));
  std::vector<TimedPoint> committed;
  for (const TimedPoint& admitted_fix : admitted_) {
    STCOMP_RETURN_IF_ERROR(it->second.compressor->Push(admitted_fix,
                                                       &committed));
  }
  return Drain(object_id, &it->second, &committed);
}

Status FleetCompressor::FinishObject(std::string_view object_id) {
  const auto it = compressors_.find(object_id);
  if (it == compressors_.end()) {
    return NotFoundError("no active stream for object '" +
                         std::string(object_id) + "'");
  }
  STCOMP_TRACE_SPAN("fleet.finish_object", object_id);
  std::vector<TimedPoint> committed;
  admitted_.clear();
  it->second.gate.Flush(&admitted_);
  Status status = Status::Ok();
  for (const TimedPoint& admitted_fix : admitted_) {
    status = it->second.compressor->Push(admitted_fix, &committed);
    if (!status.ok()) {
      break;  // Gate output is ordered; an inner failure is terminal.
    }
  }
  it->second.compressor->Finish(&committed);
  // Drain before erasing: callers (FinishAll in particular) may pass a
  // view of the map key itself, which erase() would invalidate.
  const Status drain_status = Drain(object_id, &it->second, &committed);
  STCOMP_FLIGHT_EVENT(kFleetFinishObject, object_id, it->second.fixes_out,
                      it->second.fixes_in);
  compressors_.erase(it);
  STCOMP_IF_METRICS(active_objects_gauge_->Set(
      static_cast<double>(compressors_.size())));
  // Finishing is coarse, so the O(objects) walk refreshing the
  // buffered-points gauge is affordable here (Push never does it).
  STCOMP_IF_METRICS(buffered_points());
  return status.ok() ? drain_status : status;
}

Status FleetCompressor::FinishAll() {
  STCOMP_TRACE_SPAN("fleet.finish_all", instance_);
  while (!compressors_.empty()) {
    STCOMP_RETURN_IF_ERROR(FinishObject(compressors_.begin()->first));
  }
  return Status::Ok();
}

namespace {
constexpr std::string_view kFleetSection = "fleet";
constexpr std::string_view kObjectSection = "object";
}  // namespace

Status FleetCompressor::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  STCOMP_TRACE_SPAN("fleet.save_state", instance_);
  CheckpointWriter writer;
  std::string meta;
  meta.push_back(static_cast<char>(policy_.mode));
  PutDouble(policy_.reorder_window_s, &meta);
  PutSignedVarint(policy_.quarantine_after, &meta);
  writer.AddSection(kFleetSection, meta);
  for (const auto& [object_id, state] : compressors_) {
    std::string body;
    PutString(object_id, &body);
    std::string gate_state;
    STCOMP_RETURN_IF_ERROR(state.gate.SaveState(&gate_state));
    PutString(gate_state, &body);
    std::string compressor_state;
    STCOMP_RETURN_IF_ERROR(state.compressor->SaveState(&compressor_state));
    PutString(compressor_state, &body);
    // Per-object lifetime counters: without them a restored fleet reports
    // fixes_in=0 / ratio 0 on /objectz for objects that have long histories.
    PutVarint(state.fixes_in, &body);
    PutVarint(state.fixes_out, &body);
    writer.AddSection(kObjectSection, body);
  }
  *out += writer.Finish();
  return Status::Ok();
}

Status FleetCompressor::RestoreState(std::string_view image) {
  if (!compressors_.empty()) {
    return FailedPreconditionError(
        "restore requires an empty fleet (objects are already active)");
  }
  STCOMP_TRACE_SPAN("fleet.restore_state", instance_);
  CheckpointReader reader;
  STCOMP_RETURN_IF_ERROR(reader.Parse(image));
  STCOMP_ASSIGN_OR_RETURN(std::string_view meta,
                          reader.Find(kFleetSection));
  if (meta.empty()) {
    return DataLossError("fleet checkpoint meta truncated");
  }
  const auto mode = static_cast<IngestMode>(meta.front());
  meta.remove_prefix(1);
  STCOMP_ASSIGN_OR_RETURN(const double reorder_window, GetDouble(&meta));
  STCOMP_ASSIGN_OR_RETURN(const int64_t quarantine_after,
                          GetSignedVarint(&meta));
  if (mode != policy_.mode || reorder_window != policy_.reorder_window_s ||
      quarantine_after != policy_.quarantine_after) {
    return InvalidArgumentError(
        "checkpoint was taken under a different ingest policy");
  }
  for (const CheckpointReader::Section& section : reader.sections()) {
    if (section.tag != kObjectSection) {
      continue;
    }
    std::string_view body = section.body;
    STCOMP_ASSIGN_OR_RETURN(const std::string_view object_id,
                            GetString(&body));
    STCOMP_ASSIGN_OR_RETURN(const std::string_view gate_state,
                            GetString(&body));
    STCOMP_ASSIGN_OR_RETURN(const std::string_view compressor_state,
                            GetString(&body));
    ObjectState state{factory_(),
                      IngestGate(policy_, ingest_counters_,
                                 std::string(object_id))};
    STCOMP_ASSIGN_OR_RETURN(state.fixes_in, GetVarint(&body));
    STCOMP_ASSIGN_OR_RETURN(state.fixes_out, GetVarint(&body));
    if (!body.empty()) {
      return DataLossError("trailing bytes in fleet object section");
    }
    STCOMP_RETURN_IF_ERROR(state.gate.RestoreState(gate_state));
    STCOMP_RETURN_IF_ERROR(state.compressor->RestoreState(compressor_state));
    if (!compressors_.emplace(std::string(object_id), std::move(state))
             .second) {
      return DataLossError("duplicate object '" + std::string(object_id) +
                           "' in fleet checkpoint");
    }
  }
  STCOMP_IF_METRICS(active_objects_gauge_->Set(
      static_cast<double>(compressors_.size())));
  STCOMP_IF_METRICS(buffered_points());
  return Status::Ok();
}

FleetCompressor::ObjectInfo FleetCompressor::MakeObjectInfo(
    const std::string& object_id, const ObjectState& state) {
  ObjectInfo info;
  info.object_id = object_id;
  info.fixes_in = state.fixes_in;
  info.fixes_out = state.fixes_out;
  info.buffered_points =
      state.compressor->buffered_points() + state.gate.held_points();
  info.dropped = state.gate.dropped();
  info.repaired = state.gate.repaired();
  info.quarantined = state.gate.quarantined();
  return info;
}

std::vector<FleetCompressor::ObjectInfo> FleetCompressor::ObjectsSnapshot()
    const {
  std::vector<ObjectInfo> objects;
  objects.reserve(compressors_.size());
  for (const auto& [object_id, state] : compressors_) {
    objects.push_back(MakeObjectInfo(object_id, state));
  }
  return objects;
}

std::optional<FleetCompressor::ObjectInfo> FleetCompressor::ObjectStats(
    std::string_view object_id) const {
  const auto it = compressors_.find(object_id);
  if (it == compressors_.end()) {
    return std::nullopt;
  }
  return MakeObjectInfo(it->first, it->second);
}

std::string FleetCompressor::RenderObjectsJson(size_t limit) const {
  // compressors_ is ordered by id, and so is its snapshot.
  return RenderObjectzJson(instance_, policy_.mode, std::nullopt,
                           ObjectsSnapshot(), limit);
}

std::string RenderObjectzJson(
    std::string_view instance, IngestMode mode, std::optional<size_t> shards,
    const std::vector<FleetCompressor::ObjectInfo>& objects, size_t limit) {
  const size_t total = objects.size();
  const bool truncated = limit > 0 && total > limit;
  std::string out =
      StrFormat("{\"instance\":\"%s\",\"policy\":\"%s\",",
                obs::JsonEscape(instance).c_str(),
                std::string(IngestModeToString(mode)).c_str());
  if (shards.has_value()) {
    out += StrFormat("\"shards\":%zu,", *shards);
  }
  out += StrFormat("\"objects_total\":%zu,\"truncated\":%s,\"objects\":[",
                   total, truncated ? "true" : "false");
  const size_t rendered = truncated ? limit : total;
  for (size_t i = 0; i < rendered; ++i) {
    const FleetCompressor::ObjectInfo& info = objects[i];
    out += i == 0 ? "\n" : ",\n";
    // Object ids come from feed identifiers; escape the JSON-hostile
    // characters a pathological feed could smuggle in.
    const std::string id = obs::JsonEscape(info.object_id);
    const double ratio =
        info.fixes_in > 0
            ? static_cast<double>(info.fixes_out) /
                  static_cast<double>(info.fixes_in)
            : 0.0;
    out += StrFormat(
        "  {\"object_id\":\"%s\",\"fixes_in\":%llu,\"fixes_out\":%llu,"
        "\"ratio\":%.6f,\"buffered_points\":%zu,\"dropped\":%llu,"
        "\"repaired\":%llu,\"quarantined\":%s}",
        id.c_str(), static_cast<unsigned long long>(info.fixes_in),
        static_cast<unsigned long long>(info.fixes_out), ratio,
        info.buffered_points, static_cast<unsigned long long>(info.dropped),
        static_cast<unsigned long long>(info.repaired),
        info.quarantined ? "true" : "false");
  }
  out += rendered == 0 ? "]}\n" : "\n]}\n";
  return out;
}

size_t FleetCompressor::buffered_points() const {
  size_t total = 0;
  for (const auto& [id, state] : compressors_) {
    total += state.compressor->buffered_points() + state.gate.held_points();
  }
  // The gauge tracks working memory but is refreshed lazily, on query and
  // at snapshot-relevant call sites, to keep Push() free of O(objects)
  // walks.
  STCOMP_IF_METRICS(buffered_points_gauge_->Set(static_cast<double>(total)));
  return total;
}

}  // namespace stcomp
