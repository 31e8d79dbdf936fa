#include "serving/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "selection/features.h"

namespace rpe {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot encode/decode assumes a little-endian host");

constexpr size_t kHeaderSize = 32;

// ---------------------------------------------------------------------------
// Byte-level writer/reader. The writer appends POD scalars and slabs to a
// growing string; the reader is bounds-checked and returns Status on any
// out-of-range access, so a truncated or hostile payload can never read
// past the buffer.

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  template <typename T>
  void Slab(const std::vector<T>& xs) {
    static_assert(std::is_trivially_copyable_v<T>);
    U32(static_cast<uint32_t>(xs.size()));
    Raw(xs.data(), xs.size() * sizeof(T));
  }

 private:
  void Raw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  std::string* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Status U32(uint32_t* v) { return Raw(v, sizeof *v); }
  Status U64(uint64_t* v) { return Raw(v, sizeof *v); }
  Status I32(int32_t* v) { return Raw(v, sizeof *v); }
  Status F64(double* v) { return Raw(v, sizeof *v); }

  Status Str(std::string* s) {
    uint32_t size = 0;
    RPE_RETURN_NOT_OK(U32(&size));
    if (size > Remaining()) return Truncated();
    s->assign(bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  template <typename T>
  Status Slab(std::vector<T>* xs, size_t max_count = 1u << 28) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint32_t count = 0;
    RPE_RETURN_NOT_OK(U32(&count));
    if (count > max_count || count * sizeof(T) > Remaining()) {
      return Truncated();
    }
    xs->resize(count);
    return Raw(xs->data(), count * sizeof(T));
  }

  size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  Status Raw(void* v, size_t size) {
    if (size > Remaining()) return Truncated();
    // An empty slab decodes to a vector whose data() may be null; memcpy
    // requires non-null pointers even for size 0.
    if (size != 0) std::memcpy(v, bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  static Status Truncated() {
    return Status::InvalidArgument("snapshot payload truncated");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Container framing.

/// Container CRC: the aux-offset header field, then the payload. The
/// offset steers both loaders, so a bit flip there must read as
/// corruption, not as a confusing structural error deep in the aux parser.
uint32_t FrameCrc(uint32_t aux_offset, std::string_view payload) {
  const uint32_t crc = Crc32(&aux_offset, sizeof aux_offset);
  return Crc32(payload.data(), payload.size(), crc);
}

std::string Frame(SnapshotKind kind, std::string payload,
                  uint32_t aux_offset = 0) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  Writer w(&out);
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U32(static_cast<uint32_t>(kind));
  w.U32(0);
  w.U64(payload.size());
  w.U32(FrameCrc(aux_offset, payload));
  w.U32(aux_offset);
  out += payload;
  return out;
}

Result<std::string_view> UnframeAs(SnapshotKind want, std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  if (frame.kind != want) {
    return Status::InvalidArgument("snapshot holds a different payload kind");
  }
  return frame.payload;
}

// ---------------------------------------------------------------------------
// MART model payloads. Trees are stored as parallel per-field slabs
// (structure of arrays) so a loader — or a future zero-copy reader — gets
// each field as one contiguous run.

void EncodeModel(const MartModel& model, Writer* w) {
  w->F64(model.bias());
  w->F64(model.learning_rate());
  w->Slab(model.feature_gains());
  w->U32(static_cast<uint32_t>(model.trees().size()));
  for (const RegressionTree& tree : model.trees()) {
    const auto& nodes = tree.nodes();
    std::vector<int32_t> feature(nodes.size()), left(nodes.size()),
        right(nodes.size());
    std::vector<double> threshold(nodes.size()), value(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      feature[i] = nodes[i].feature;
      threshold[i] = nodes[i].threshold;
      left[i] = nodes[i].left;
      right[i] = nodes[i].right;
      value[i] = nodes[i].value;
    }
    w->Slab(feature);
    w->Slab(threshold);
    w->Slab(left);
    w->Slab(right);
    w->Slab(value);
  }
}

Result<MartModel> DecodeModel(Reader* r) {
  double bias = 0.0, learning_rate = 0.0;
  std::vector<double> gains;
  uint32_t num_trees = 0;
  RPE_RETURN_NOT_OK(r->F64(&bias));
  RPE_RETURN_NOT_OK(r->F64(&learning_rate));
  RPE_RETURN_NOT_OK(r->Slab(&gains));
  RPE_RETURN_NOT_OK(r->U32(&num_trees));
  std::vector<RegressionTree> trees;
  // Cap the speculative reserve: the count is untrusted (CRC only proves
  // integrity, not sanity), and a truncated body fails fast below anyway.
  trees.reserve(std::min<uint32_t>(num_trees, 4096));
  for (uint32_t t = 0; t < num_trees; ++t) {
    std::vector<int32_t> feature, left, right;
    std::vector<double> threshold, value;
    RPE_RETURN_NOT_OK(r->Slab(&feature));
    RPE_RETURN_NOT_OK(r->Slab(&threshold));
    RPE_RETURN_NOT_OK(r->Slab(&left));
    RPE_RETURN_NOT_OK(r->Slab(&right));
    RPE_RETURN_NOT_OK(r->Slab(&value));
    if (threshold.size() != feature.size() || left.size() != feature.size() ||
        right.size() != feature.size() || value.size() != feature.size()) {
      return Status::InvalidArgument("snapshot tree slab length mismatch");
    }
    std::vector<RegressionTree::Node> nodes(feature.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].feature = feature[i];
      nodes[i].threshold = threshold[i];
      nodes[i].left = left[i];
      nodes[i].right = right[i];
      nodes[i].value = value[i];
    }
    RPE_ASSIGN_OR_RETURN(RegressionTree tree,
                         RegressionTree::FromNodes(std::move(nodes)));
    trees.push_back(std::move(tree));
  }
  return MartModel::FromParts(bias, learning_rate, std::move(trees),
                              std::move(gains));
}

void EncodeSelector(const EstimatorSelector& selector, Writer* w) {
  w->U32(selector.uses_dynamic_features() ? 1 : 0);
  std::vector<uint64_t> pool(selector.pool().begin(), selector.pool().end());
  w->Slab(pool);
  w->U32(static_cast<uint32_t>(selector.models().size()));
  for (const MartModel& model : selector.models()) EncodeModel(model, w);
}

Result<EstimatorSelector> DecodeSelector(Reader* r) {
  uint32_t use_dynamic = 0, num_models = 0;
  std::vector<uint64_t> pool64;
  RPE_RETURN_NOT_OK(r->U32(&use_dynamic));
  RPE_RETURN_NOT_OK(r->Slab(&pool64));
  RPE_RETURN_NOT_OK(r->U32(&num_models));
  if (num_models != pool64.size()) {
    return Status::InvalidArgument("snapshot selector pool/model mismatch");
  }
  std::vector<MartModel> models;
  models.reserve(num_models);
  for (uint32_t m = 0; m < num_models; ++m) {
    RPE_ASSIGN_OR_RETURN(MartModel model, DecodeModel(r));
    models.push_back(std::move(model));
  }
  std::vector<size_t> pool(pool64.begin(), pool64.end());
  return EstimatorSelector::FromModels(std::move(pool), use_dynamic != 0,
                                       std::move(models));
}

// Feature metadata: the snapshot pins the schema it was trained under; a
// load into a binary whose FeatureSchema differs (renamed, reordered or
// recounted features) must fail rather than silently mis-index.
void EncodeSchema(Writer* w) {
  const FeatureSchema& schema = FeatureSchema::Get();
  w->U32(static_cast<uint32_t>(schema.num_features()));
  w->U32(static_cast<uint32_t>(schema.num_static_features()));
  for (const std::string& name : schema.names()) w->Str(name);
}

Status DecodeAndCheckSchema(Reader* r) {
  const FeatureSchema& schema = FeatureSchema::Get();
  uint32_t num_features = 0, num_static = 0;
  RPE_RETURN_NOT_OK(r->U32(&num_features));
  RPE_RETURN_NOT_OK(r->U32(&num_static));
  if (num_features != schema.num_features() ||
      num_static != schema.num_static_features()) {
    return Status::InvalidArgument(
        "snapshot feature schema disagrees with this binary: " +
        std::to_string(num_features) + "/" + std::to_string(num_static) +
        " features vs " + std::to_string(schema.num_features()) + "/" +
        std::to_string(schema.num_static_features()));
  }
  for (size_t f = 0; f < schema.num_features(); ++f) {
    std::string name;
    RPE_RETURN_NOT_OK(r->Str(&name));
    if (name != schema.name(f)) {
      return Status::InvalidArgument("snapshot feature " + std::to_string(f) +
                                     " is '" + name + "', expected '" +
                                     schema.name(f) + "'");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compiled-flat aux section: the FlatEnsembleSet tables of both
// selectors, every slab 8-aligned relative to the payload start so the
// zero-copy loader (serving/mmap_arena.cc, which mirrors this layout) can
// point Slab views straight into the mapping. Scalars are written
// unaligned (readers memcpy them); only slab data is padded.

class AuxWriter {
 public:
  explicit AuxWriter(std::string* out) : out_(out) {}

  void Pad8() { out_->append((8 - out_->size() % 8) % 8, '\0'); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }

  /// 8-aligned slab: u64 count (guard slots included), padding, raw data,
  /// then `guard` zeroed elements.
  template <typename T>
  void AlignedSlab(const Slab<T>& s, size_t guard = 0) {
    static_assert(alignof(T) <= 8);
    U64(s.size() + guard);
    Pad8();
    Raw(s.data(), s.size() * sizeof(T));
    out_->append(guard * sizeof(T), '\0');
  }

 private:
  void Raw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  std::string* out_;
};

void EncodeFlatSet(const EstimatorSelector& selector, std::string* payload) {
  const FlatEnsembleSet& flat = selector.flat();
  AuxWriter w(payload);
  w.Pad8();
  w.U32(kFlatSectionMagic);
  w.U32(selector.uses_dynamic_features() ? 1 : 0);
  w.U64(flat.num_models());
  w.U64(selector.uses_dynamic_features()
            ? FeatureSchema::Get().num_features()
            : FeatureSchema::Get().num_static_features());
  {
    std::vector<uint64_t> pool(selector.pool().begin(),
                               selector.pool().end());
    w.AlignedSlab(Slab<uint64_t>(std::move(pool)));
  }
  // Per-model training gains (small, copied at load) so FeatureImportance
  // survives the model-free rebuild: per-model lengths, then the
  // concatenation.
  {
    std::vector<uint64_t> lens;
    std::vector<double> concat;
    for (const MartModel& model : selector.models()) {
      lens.push_back(model.feature_gains().size());
      concat.insert(concat.end(), model.feature_gains().begin(),
                    model.feature_gains().end());
    }
    w.AlignedSlab(Slab<uint64_t>(std::move(lens)));
    w.AlignedSlab(Slab<double>(std::move(concat)));
  }
  const FlatEnsembleSet::Parts& t = flat.parts();
  w.I32(t.num_features);
  w.AlignedSlab(t.feat_begin);
  w.AlignedSlab(t.threshold);
  w.AlignedSlab(t.entry_tree);
  w.AlignedSlab(t.entry_mask);
  w.AlignedSlab(t.init_mask);
  w.AlignedSlab(t.leaf_base);
  w.AlignedSlab(t.leaf_value, kQsLeafGuard);
  w.AlignedSlab(t.model_tree_begin);
  w.AlignedSlab(t.bias);
}

/// The model payload: schema metadata, then the static and dynamic
/// selectors.
std::string EncodeStackModelPayload(const SelectorStack& stack) {
  RPE_CHECK(!stack.static_selector.uses_dynamic_features());
  RPE_CHECK(stack.dynamic_selector.uses_dynamic_features());
  // An arena-backed stack (EstimatorSelector::FromFlat) has no models to
  // persist; re-encoding it would silently write an empty model section.
  RPE_CHECK(stack.static_selector.has_models() &&
            stack.dynamic_selector.has_models())
      << "cannot encode a model-free (mmap-loaded) selector stack";
  std::string payload;
  Writer w(&payload);
  EncodeSchema(&w);
  EncodeSelector(stack.static_selector, &w);
  EncodeSelector(stack.dynamic_selector, &w);
  return payload;
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  if (RPE_INJECT_FAULT("snapshot.write")) {
    return Status::IOError("injected failure: snapshot.write (" + path + ")");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<std::string> ReadFile(const std::string& path) {
  if (RPE_INJECT_FAULT("snapshot.read")) {
    return Status::IOError("injected failure: snapshot.read (" + path + ")");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  // "snapshot.read.short": the tail of the file never arrives — the frame
  // checks downstream must reject the truncation, never decode part of it.
  if (RPE_INJECT_FAULT("snapshot.read.short")) bytes.resize(bytes.size() / 2);
  return bytes;
}

}  // namespace

Result<SnapshotFrame> UnframeSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("snapshot shorter than its header");
  }
  Reader r(bytes.substr(0, kHeaderSize));
  uint32_t magic = 0, version = 0, kind = 0, reserved = 0, crc = 0;
  uint32_t aux_offset = 0;
  uint64_t payload_size = 0;
  RPE_RETURN_NOT_OK(r.U32(&magic));
  RPE_RETURN_NOT_OK(r.U32(&version));
  RPE_RETURN_NOT_OK(r.U32(&kind));
  RPE_RETURN_NOT_OK(r.U32(&reserved));
  RPE_RETURN_NOT_OK(r.U64(&payload_size));
  RPE_RETURN_NOT_OK(r.U32(&crc));
  RPE_RETURN_NOT_OK(r.U32(&aux_offset));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    return Status::InvalidArgument(
        "snapshot payload size mismatch (truncated or padded file)");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  // "snapshot.crc": the stored checksum reads back wrong — corruption on
  // the wire or at rest, detected exactly like a real bit flip.
  if (FrameCrc(aux_offset, payload) != crc ||
      RPE_INJECT_FAULT("snapshot.crc")) {
    return Status::InvalidArgument("snapshot payload CRC mismatch");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kSelectorStack) &&
      kind != static_cast<uint32_t>(SnapshotKind::kRecordBatch)) {
    return Status::InvalidArgument("unknown snapshot kind " +
                                   std::to_string(kind));
  }
  // The CRC vouches for the aux offset; still bound it so no reader
  // chases a hand-crafted offset past the payload. Alignment is the aux
  // parser's concern (misalignment degrades to the copy path, it is not
  // corruption).
  if (aux_offset != 0 && aux_offset >= payload.size()) {
    return Status::InvalidArgument("snapshot aux offset past the payload");
  }
  SnapshotFrame frame;
  frame.kind = static_cast<SnapshotKind>(kind);
  frame.version = version;
  frame.aux_offset = aux_offset;
  frame.payload = payload;
  return frame;
}

namespace snapshot_internal {

Status CheckSchemaPrefix(std::string_view payload) {
  Reader r(payload);
  return DecodeAndCheckSchema(&r);
}

}  // namespace snapshot_internal

SelectorStack SelectorStack::Train(const std::vector<PipelineRecord>& records,
                                   std::vector<size_t> pool,
                                   const MartParams& params) {
  SelectorStack stack;
  stack.static_selector = EstimatorSelector::Train(
      records, pool, /*use_dynamic_features=*/false, params);
  stack.dynamic_selector = EstimatorSelector::Train(
      records, std::move(pool), /*use_dynamic_features=*/true, params);
  return stack;
}

std::string EncodeSelectorStack(const SelectorStack& stack) {
  std::string payload = EncodeStackModelPayload(stack);
  // Aux section: the compiled scoring tables, 8-aligned, for the
  // zero-copy loader. The model payload above stays the source of truth
  // for the heap decoder.
  AuxWriter aux(&payload);
  aux.Pad8();
  const uint64_t aux_offset = payload.size();
  RPE_CHECK_LE(aux_offset, std::numeric_limits<uint32_t>::max());
  EncodeFlatSet(stack.static_selector, &payload);
  EncodeFlatSet(stack.dynamic_selector, &payload);
  return Frame(SnapshotKind::kSelectorStack, std::move(payload),
               static_cast<uint32_t>(aux_offset));
}

Result<SelectorStack> DecodeSelectorStack(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  if (frame.kind != SnapshotKind::kSelectorStack) {
    return Status::InvalidArgument("snapshot holds a different payload kind");
  }
  const std::string_view payload = frame.payload;
  Reader r(payload);
  RPE_RETURN_NOT_OK(DecodeAndCheckSchema(&r));
  SelectorStack stack;
  RPE_ASSIGN_OR_RETURN(stack.static_selector, DecodeSelector(&r));
  RPE_ASSIGN_OR_RETURN(stack.dynamic_selector, DecodeSelector(&r));
  if (stack.static_selector.uses_dynamic_features() ||
      !stack.dynamic_selector.uses_dynamic_features()) {
    return Status::InvalidArgument(
        "snapshot selector stack has wrong feature modes");
  }
  if (frame.aux_offset == 0) {
    if (r.Remaining() != 0) {
      return Status::InvalidArgument("snapshot has trailing payload bytes");
    }
  } else {
    // Exact consumption: the only bytes allowed between the model payload
    // and the aux section are a short run of zero alignment padding (ours
    // is < 8; tolerate foreign writers up to a 64-byte unit). Anything
    // else is smuggled or misframed data.
    const size_t consumed = payload.size() - r.Remaining();
    if (consumed > frame.aux_offset || frame.aux_offset - consumed >= 64) {
      return Status::InvalidArgument(
          "snapshot aux section does not abut the model payload");
    }
    for (size_t i = consumed; i < frame.aux_offset; ++i) {
      if (payload[i] != '\0') {
        return Status::InvalidArgument(
            "snapshot has non-padding bytes before the aux section");
      }
    }
  }
  return stack;
}

std::string EncodeMartModel(const MartModel& model) {
  std::string bytes;
  Writer w(&bytes);
  EncodeModel(model, &w);
  return bytes;
}

Result<MartModel> DecodeMartModel(std::string_view bytes) {
  Reader r(bytes);
  RPE_ASSIGN_OR_RETURN(MartModel model, DecodeModel(&r));
  if (r.Remaining() != 0) {
    return Status::InvalidArgument("model encoding has trailing bytes");
  }
  return model;
}

std::string EncodeRecordBatch(const std::vector<PipelineRecord>& records) {
  const FeatureSchema& schema = FeatureSchema::Get();
  const size_t arity =
      records.empty() ? static_cast<size_t>(kNumEstimatorKinds)
                      : records.front().l1.size();
  std::string payload;
  Writer w(&payload);
  w.U32(static_cast<uint32_t>(schema.num_features()));
  w.U32(static_cast<uint32_t>(arity));
  w.U64(records.size());
  for (const PipelineRecord& r : records) {
    RPE_CHECK_EQ(r.features.size(), schema.num_features());
    RPE_CHECK_EQ(r.l1.size(), arity);
    RPE_CHECK_EQ(r.l2.size(), arity);
    w.Str(r.workload);
    w.Str(r.query);
    w.I32(r.pipeline_id);
    w.Str(r.tag);
    w.F64(r.total_n);
    w.Slab(r.features);
    w.Slab(r.l1);
    w.Slab(r.l2);
  }
  return Frame(SnapshotKind::kRecordBatch, std::move(payload));
}

Result<std::vector<PipelineRecord>> DecodeRecordBatch(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(std::string_view payload,
                       UnframeAs(SnapshotKind::kRecordBatch, bytes));
  Reader r(payload);
  const FeatureSchema& schema = FeatureSchema::Get();
  uint32_t num_features = 0, arity = 0;
  uint64_t num_records = 0;
  RPE_RETURN_NOT_OK(r.U32(&num_features));
  RPE_RETURN_NOT_OK(r.U32(&arity));
  RPE_RETURN_NOT_OK(r.U64(&num_records));
  if (num_features != schema.num_features()) {
    return Status::InvalidArgument(
        "record snapshot feature count disagrees with this binary");
  }
  if (arity != static_cast<size_t>(kNumEstimatorKinds)) {
    return Status::InvalidArgument(
        "record snapshot estimator arity " + std::to_string(arity) +
        " disagrees with this binary's estimator table (" +
        std::to_string(kNumEstimatorKinds) + ")");
  }
  std::vector<PipelineRecord> records;
  records.reserve(static_cast<size_t>(std::min<uint64_t>(num_records, 65536)));
  for (uint64_t i = 0; i < num_records; ++i) {
    PipelineRecord rec;
    RPE_RETURN_NOT_OK(r.Str(&rec.workload));
    RPE_RETURN_NOT_OK(r.Str(&rec.query));
    RPE_RETURN_NOT_OK(r.I32(&rec.pipeline_id));
    RPE_RETURN_NOT_OK(r.Str(&rec.tag));
    RPE_RETURN_NOT_OK(r.F64(&rec.total_n));
    RPE_RETURN_NOT_OK(r.Slab(&rec.features));
    RPE_RETURN_NOT_OK(r.Slab(&rec.l1));
    RPE_RETURN_NOT_OK(r.Slab(&rec.l2));
    if (rec.features.size() != num_features || rec.l1.size() != arity ||
        rec.l2.size() != arity) {
      return Status::InvalidArgument("record snapshot row " +
                                     std::to_string(i) +
                                     " has mismatched arity");
    }
    records.push_back(std::move(rec));
  }
  if (r.Remaining() != 0) {
    return Status::InvalidArgument("snapshot has trailing payload bytes");
  }
  return records;
}

Result<SnapshotKind> PeekSnapshotKind(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  return frame.kind;
}

Result<SnapshotKind> PeekSnapshotFileKind(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return PeekSnapshotKind(bytes);
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  return ReadFile(path);
}

Status SaveSelectorStack(const SelectorStack& stack, const std::string& path) {
  return WriteFile(path, EncodeSelectorStack(stack));
}

Result<SelectorStack> LoadSelectorStack(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return DecodeSelectorStack(bytes);
}

Status SaveRecordBatch(const std::vector<PipelineRecord>& records,
                       const std::string& path) {
  return WriteFile(path, EncodeRecordBatch(records));
}

Result<std::vector<PipelineRecord>> LoadRecordBatch(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return DecodeRecordBatch(bytes);
}

}  // namespace rpe
