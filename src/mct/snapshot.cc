#include "mct/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace mct {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'T', 'S', 'N', 'A', 'P', '2'};
constexpr char kMagicV1[8] = {'M', 'C', 'T', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kFormatVersion = 2;

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* p, size_t n) {
    out_->append(static_cast<const char*>(p), n);
  }

 private:
  std::string* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  Result<uint8_t> U8() {
    uint8_t v = 0;
    MCT_RETURN_IF_ERROR(Raw(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v = 0;
    MCT_RETURN_IF_ERROR(Raw(&v, 4));
    return v;
  }
  Result<uint64_t> U64() {
    uint64_t v = 0;
    MCT_RETURN_IF_ERROR(Raw(&v, 8));
    return v;
  }
  Result<std::string> Str() {
    MCT_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (len > (1u << 28)) return Status::Corruption("snapshot string too big");
    if (data_.size() - off_ < len) {
      return Status::Corruption("truncated snapshot");
    }
    std::string s(data_.substr(off_, len));
    off_ += len;
    return s;
  }
  size_t remaining() const { return data_.size() - off_; }

 private:
  Status Raw(void* p, size_t n) {
    if (data_.size() - off_ < n) {
      return Status::Corruption("truncated snapshot");
    }
    std::memcpy(p, data_.data() + off_, n);
    off_ += n;
    return Status::OK();
  }
  std::string_view data_;
  size_t off_ = 0;
};

/// Serializes header (sans magic/version/lsn) + body into `out`.
void SerializeBody(const MctDatabase& db, std::string* out) {
  Writer w(out);
  w.U32(static_cast<uint32_t>(db.num_colors()));
  for (ColorId c = 0; c < db.num_colors(); ++c) w.Str(db.ColorName(c));

  // Live nodes (every element reachable in some color), dense re-ids in
  // order of first appearance over the colors' pre-orders, and per color
  // its edges in pre-order (parent 0xFFFFFFFF = document). A parent
  // precedes its child in that pre-order, so its dense id is known; the
  // document keeps the unassigned mark, which is what the format writes
  // for it.
  constexpr uint32_t kDocument = 0xFFFFFFFFu;
  std::vector<uint32_t> dense(db.store().size(), kDocument);
  std::vector<NodeId> live;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> edges(
      db.num_colors());
  for (ColorId c = 0; c < db.num_colors(); ++c) {
    const ColoredTree* t = db.tree(c);
    edges[c].reserve(t->size() - 1);
    for (NodeId n : t->PreOrder()) {
      if (n == db.document()) continue;
      if (dense[n] == kDocument) {
        dense[n] = static_cast<uint32_t>(live.size());
        live.push_back(n);
      }
      edges[c].emplace_back(dense[t->Parent(n)], dense[n]);
    }
  }
  w.U32(static_cast<uint32_t>(live.size()));
  for (NodeId n : live) {
    w.U8(static_cast<uint8_t>(db.Kind(n)));
    w.Str(db.Tag(n));
    w.U8(db.store().HasContent(n) ? 1 : 0);
    if (db.store().HasContent(n)) w.Str(db.Content(n));
    const auto& attrs = db.Attrs(n);
    w.U32(static_cast<uint32_t>(attrs.size()));
    for (const NodeAttr& a : attrs) {
      w.Str(db.store().names().Name(a.name));
      w.Str(a.value);
    }
  }
  for (const auto& color_edges : edges) {
    w.U64(color_edges.size());
    for (const auto& [p, ch] : color_edges) {
      w.U32(p);
      w.U32(ch);
    }
  }
}

Result<std::unique_ptr<MctDatabase>> DeserializeBody(std::string_view body) {
  Reader r(body);
  auto db = std::make_unique<MctDatabase>();
  MctDatabase::Loader loader(db.get());
  MCT_ASSIGN_OR_RETURN(uint32_t ncolors, r.U32());
  if (ncolors > kMaxColors) return Status::Corruption("bad color count");
  for (uint32_t i = 0; i < ncolors; ++i) {
    MCT_ASSIGN_OR_RETURN(std::string name, r.Str());
    MCT_RETURN_IF_ERROR(db->RegisterColor(name).status());
  }
  MCT_ASSIGN_OR_RETURN(uint32_t nnodes, r.U32());
  // Bound the count before the pre-allocation below: a bit-flipped header
  // must produce Corruption, not a multi-gigabyte allocation.
  if (nnodes > (1u << 27)) return Status::Corruption("bad node count");
  std::vector<NodeId> nodes(nnodes, kInvalidNodeId);
  for (uint32_t i = 0; i < nnodes; ++i) {
    MCT_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    MCT_ASSIGN_OR_RETURN(std::string tag, r.Str());
    if (kind != static_cast<uint8_t>(xml::NodeKind::kElement)) {
      return Status::Corruption("snapshot holds a non-element node");
    }
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateFreeElement(tag));
    nodes[i] = n;
    MCT_ASSIGN_OR_RETURN(uint8_t has_content, r.U8());
    if (has_content != 0) {
      MCT_ASSIGN_OR_RETURN(std::string content, r.Str());
      MCT_RETURN_IF_ERROR(db->SetContent(n, content));
    }
    MCT_ASSIGN_OR_RETURN(uint32_t nattrs, r.U32());
    for (uint32_t a = 0; a < nattrs; ++a) {
      MCT_ASSIGN_OR_RETURN(std::string name, r.Str());
      MCT_ASSIGN_OR_RETURN(std::string value, r.Str());
      MCT_RETURN_IF_ERROR(db->SetAttr(n, name, value));
    }
  }
  for (ColorId c = 0; c < ncolors; ++c) {
    MCT_ASSIGN_OR_RETURN(uint64_t nedges, r.U64());
    for (uint64_t e = 0; e < nedges; ++e) {
      MCT_ASSIGN_OR_RETURN(uint32_t pd, r.U32());
      MCT_ASSIGN_OR_RETURN(uint32_t cd, r.U32());
      if (cd >= nnodes || (pd != 0xFFFFFFFFu && pd >= nnodes)) {
        return Status::Corruption("snapshot edge out of range");
      }
      NodeId parent = (pd == 0xFFFFFFFFu) ? db->document() : nodes[pd];
      MCT_RETURN_IF_ERROR(db->AddNodeColor(nodes[cd], c, parent));
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("snapshot has trailing bytes");
  }
  loader.Finish();
  return db;
}

/// Directory part of `path` ("." when bare).
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

Status SaveSnapshot(const MctDatabase& db, const std::string& path,
                    FileEnv* env, uint64_t last_lsn) {
  if (env == nullptr) env = FileEnv::Default();
  std::string image;
  image.append(kMagic, sizeof(kMagic));
  {
    Writer w(&image);
    w.U32(kFormatVersion);
    w.U64(last_lsn);
  }
  SerializeBody(db, &image);
  uint32_t crc = Crc32c(image);
  image.append(reinterpret_cast<const char*>(&crc), 4);

  // Temp write + fsync + rename + dir fsync: a crash leaves either the old
  // complete snapshot or the new one, never a torn file under `path`.
  const std::string tmp = path + ".tmp";
  {
    MCT_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(tmp, true));
    MCT_RETURN_IF_ERROR(file->Append(image));
    MCT_RETURN_IF_ERROR(file->Sync());
    MCT_RETURN_IF_ERROR(file->Close());
  }
  MCT_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  MCT_RETURN_IF_ERROR(env->SyncDir(DirOf(path)));
  MetricsRegistry::Global().counter("mct.checkpoint.writes")->Inc();
  MetricsRegistry::Global().counter("mct.checkpoint.bytes")->Inc(image.size());
  return Status::OK();
}

Result<std::unique_ptr<MctDatabase>> OpenSnapshot(const std::string& path,
                                                  FileEnv* env,
                                                  uint64_t* last_lsn) {
  if (env == nullptr) env = FileEnv::Default();
  auto read = env->ReadFileToString(path);
  if (!read.ok()) {
    if (read.status().IsNotFound()) {
      return Status::IOError("cannot open " + path);
    }
    return read.status();
  }
  const std::string& data = *read;
  if (data.size() >= sizeof(kMagicV1) &&
      std::memcmp(data.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    return Status::Corruption(path +
                              " is a legacy v1 snapshot without a checksum; "
                              "re-save it with this build");
  }
  // magic + version + lsn + crc is the smallest possible image.
  if (data.size() < sizeof(kMagic) + 4 + 8 + 4 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + " is not an MCT snapshot");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (Crc32c(data.data(), data.size() - 4) != stored_crc) {
    MetricsRegistry::Global().counter("mct.snapshot.crc_failures")->Inc();
    return Status::Corruption(path + " failed checksum verification");
  }
  Reader header(std::string_view(data).substr(sizeof(kMagic)));
  MCT_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported snapshot format version %u", version));
  }
  MCT_ASSIGN_OR_RETURN(uint64_t lsn, header.U64());
  if (last_lsn != nullptr) *last_lsn = lsn;
  std::string_view body(data.data() + sizeof(kMagic) + 4 + 8,
                        data.size() - sizeof(kMagic) - 4 - 8 - 4);
  return DeserializeBody(body);
}

}  // namespace mct
