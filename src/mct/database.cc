#include "mct/database.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "mct/shard.h"

namespace mct {

MctDatabase::MctDatabase() : edge_counts_(std::make_shared<EdgeCounts>()) {
  for (IndexImage& image : images_) {
    image = std::make_shared<ImageDirectory>();
  }
  auto doc = store_.CreateNode(xml::NodeKind::kDocument, "#document");
  assert(doc.ok());
  document_ = *doc;
}

MctDatabase::MctDatabase(const MctDatabase& o)
    : store_(o.store_),
      colors_(o.colors_),
      document_(o.document_),
      images_(o.images_),
      edge_counts_(o.edge_counts_),
      shard_count_(o.shard_count_) {
  trees_.reserve(o.trees_.size());
  for (const auto& t : o.trees_) {
    trees_.push_back(std::make_unique<ColoredTree>(*t));
  }
}

std::unique_ptr<MctDatabase> MctDatabase::CowClone() const {
  assert(!loading_);  // the clone would miss the pending entries
  return std::unique_ptr<MctDatabase>(new MctDatabase(*this));
}

MctDatabase::~MctDatabase() = default;

MctDatabase::Loader::Loader(MctDatabase* db) : db_(db) {
  assert(!db->loading_);
  db->loading_ = true;
}

void MctDatabase::Loader::Finish() {
  if (db_ == nullptr) return;
  for (int kind = 0; kind < kNumImages; ++kind) {
    db_->BuildPending(static_cast<ImageKind>(kind));
  }
  db_->loading_ = false;
  db_ = nullptr;
}

uint32_t MctDatabase::HashValue(std::string_view s) {
  // FNV-1a, folded to 32 bits.
  uint32_t h = 2166136261u;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

const std::vector<NodeId>* MctDatabase::ImageFind(const ImageDirectory& image,
                                                  uint64_t key) {
  const ImageBucket* bucket = image.buckets[BucketOf(key)].get();
  if (bucket == nullptr) return nullptr;
  auto it = bucket->lists.find(key);
  return it == bucket->lists.end() ? nullptr : it->second.get();
}

void MctDatabase::ImageInsert(IndexImage* image, uint64_t key, NodeId n) {
  ImageBucket* bucket = CowOwn(CowOwn(*image)->buckets[BucketOf(key)]);
  std::vector<NodeId>* list = CowOwn(bucket->lists[key]);
  auto it = std::lower_bound(list->begin(), list->end(), n);
  if (it == list->end() || *it != n) list->insert(it, n);
}

void MctDatabase::ImageErase(IndexImage* image, uint64_t key, NodeId n) {
  const std::vector<NodeId>* cur = ImageFind(**image, key);
  if (cur == nullptr || !std::binary_search(cur->begin(), cur->end(), n)) {
    return;
  }
  std::shared_ptr<ImageBucket>& slot = CowOwn(*image)->buckets[BucketOf(key)];
  ImageBucket* bucket = CowOwn(slot);
  auto it = bucket->lists.find(key);
  if (it->second->size() == 1) {
    bucket->lists.erase(it);
    if (bucket->lists.empty()) slot = nullptr;
    return;
  }
  std::vector<NodeId>* list = CowOwn(it->second);
  list->erase(std::lower_bound(list->begin(), list->end(), n));
}

void MctDatabase::IndexInsert(ImageKind kind, uint64_t key, NodeId n) {
  if (loading_) {
    pending_[kind].push_back(ImageEntry{key, n});
  } else {
    ImageInsert(&images_[kind], key, n);
  }
}

void MctDatabase::IndexErase(ImageKind kind, uint64_t key, NodeId n) {
  if (loading_) BuildPending(kind);  // the entry may still be pending
  ImageErase(&images_[kind], key, n);
}

void MctDatabase::BuildPending(ImageKind kind) {
  std::vector<ImageEntry> entries = std::exchange(pending_[kind], {});
  if (entries.empty()) return;
  // Group the entries by bucket in place (an American flag sort: each
  // misplaced entry is swapped straight into its bucket's next free slot),
  // so each bucket is privatized once; start[b]..start[b + 1] is bucket b.
  std::array<size_t, kImageBuckets + 1> start{};
  for (const ImageEntry& e : entries) ++start[BucketOf(e.key) + 1];
  for (size_t b = 0; b < kImageBuckets; ++b) start[b + 1] += start[b];
  std::array<size_t, kImageBuckets> next;
  std::copy(start.begin(), start.end() - 1, next.begin());
  for (size_t b = 0; b < kImageBuckets; ++b) {
    while (next[b] < start[b + 1]) {
      ImageEntry e = entries[next[b]];
      for (size_t eb = BucketOf(e.key); eb != b; eb = BucketOf(e.key)) {
        std::swap(e, entries[next[eb]++]);
      }
      entries[next[b]++] = e;
    }
  }
  ImageDirectory* dir = CowOwn(images_[kind]);
  for (size_t b = 0; b < kImageBuckets; ++b) {
    const auto first = entries.begin() + static_cast<ptrdiff_t>(start[b]);
    const auto last = entries.begin() + static_cast<ptrdiff_t>(start[b + 1]);
    if (first == last) continue;
    // Each key's entries together, its nodes ascending. A bucket of one
    // key whose nodes arrived in order (a build's tag image) is sorted.
    auto by_key_node = [](const ImageEntry& x, const ImageEntry& y) {
      return x.key != y.key ? x.key < y.key : x.node < y.node;
    };
    if (!std::is_sorted(first, last, by_key_node)) {
      std::sort(first, last, by_key_node);
    }
    // New buckets and lists are allocated at their final size; existing
    // ones grow as usual, so repeated small loads stay amortized.
    ImageBucket* bucket = CowOwn(dir->buckets[b]);
    if (bucket->lists.empty()) {
      size_t keys = 0;
      for (auto it = first; it != last; ++it) {
        keys += it == first || it->key != (it - 1)->key;
      }
      bucket->lists.reserve(keys);
    }
    // A (key, node) pair is pending at most once and never also in the
    // image: a node enters an image once per color or value, and an erase
    // builds the pending entries in first. So runs need no deduplication.
    for (auto it = first; it != last;) {
      const uint64_t key = it->key;
      auto run_end = it;
      while (run_end != last && run_end->key == key) ++run_end;
      std::vector<NodeId>* list = CowOwn(bucket->lists[key]);
      const size_t old_size = list->size();
      if (old_size == 0) list->reserve(static_cast<size_t>(run_end - it));
      for (; it != run_end; ++it) list->push_back(it->node);
      // Merged into an existing list unless the new nodes all follow it.
      const auto mid = list->begin() + static_cast<ptrdiff_t>(old_size);
      if (old_size != 0 && *(mid - 1) > *mid) {
        std::inplace_merge(list->begin(), mid, list->end());
      }
    }
  }
}

Result<ColorId> MctDatabase::RegisterColor(std::string_view name) {
  ColorId existing = colors_.Lookup(name);
  if (existing != kInvalidColorId) return existing;
  MCT_ASSIGN_OR_RETURN(ColorId id, colors_.Register(name));
  assert(id == trees_.size());
  trees_.push_back(std::make_unique<ColoredTree>(id));
  MCT_RETURN_IF_ERROR(trees_[id]->SetRoot(document_));
  store_.AddColor(document_, id);
  return id;
}

Result<NodeId> MctDatabase::CreateElement(ColorId color, NodeId parent,
                                          std::string_view tag) {
  MCT_ASSIGN_OR_RETURN(NodeId node,
                       store_.CreateNode(xml::NodeKind::kElement, tag));
  MCT_RETURN_IF_ERROR(AddNodeColor(node, color, parent));
  return node;
}

Result<NodeId> MctDatabase::CreateFreeElement(std::string_view tag) {
  return store_.CreateNode(xml::NodeKind::kElement, tag);
}

Status MctDatabase::AddNodeColor(NodeId node, ColorId color, NodeId parent,
                                 NodeId before) {
  if (color >= trees_.size()) {
    return Status::InvalidArgument("unregistered color");
  }
  bool first_color = store_.Colors(node).empty();
  MCT_RETURN_IF_ERROR(trees_[color]->InsertChild(parent, node, before));
  store_.AddColor(node, color);
  if (IsElement(node)) {
    IndexInsert(kTagImage, TagKey(color, store_.Name(node)), node);
    if (IsElement(parent)) {
      ++(*CowOwn(edge_counts_))[EdgeKey{color, store_.Name(parent),
                                        store_.Name(node)}];
    }
  }
  if (first_color) {
    // The node enters the database: its content and attribute values
    // become index-visible.
    if (store_.HasContent(node)) {
      IndexInsert(kContentImage,
                  ValueKey(store_.Name(node), HashValue(store_.Content(node))),
                  node);
    }
    for (const NodeAttr& a : store_.Attrs(node)) {
      IndexInsert(kAttrImage, ValueKey(a.name, HashValue(a.value)), node);
    }
  }
  return Status::OK();
}

Status MctDatabase::RemoveNodeColor(NodeId node, ColorId color) {
  if (color >= trees_.size()) {
    return Status::InvalidArgument("unregistered color");
  }
  // The element-to-element edges that leave `color` with the subtree: read
  // before the detach unlinks them, uncounted only once it succeeds.
  std::vector<EdgeKey> lost;
  const ColoredTree* t = trees_[color].get();
  if (node != document_ && t->Contains(node)) {
    std::vector<std::pair<NodeId, NodeId>> stack{{t->Parent(node), node}};
    while (!stack.empty()) {
      auto [p, n] = stack.back();
      stack.pop_back();
      if (IsElement(p) && IsElement(n)) {
        lost.push_back(EdgeKey{color, store_.Name(p), store_.Name(n)});
      }
      for (NodeId ch = t->FirstChild(n); ch != kInvalidNodeId;
           ch = t->NextSibling(ch)) {
        stack.emplace_back(n, ch);
      }
    }
  }
  std::vector<NodeId> removed;
  MCT_RETURN_IF_ERROR(trees_[color]->DetachSubtree(node, &removed));
  if (!lost.empty()) {
    EdgeCounts& counts = *CowOwn(edge_counts_);
    for (const EdgeKey& k : lost) {
      auto it = counts.find(k);
      if (it != counts.end() && --it->second == 0) counts.erase(it);
    }
  }
  for (NodeId n : removed) {
    store_.RemoveColor(n, color);
    if (IsElement(n)) {
      IndexErase(kTagImage, TagKey(color, store_.Name(n)), n);
    }
    if (store_.Colors(n).empty()) {
      // Last color gone: the node leaves the database entirely.
      if (store_.HasContent(n)) {
        IndexErase(kContentImage,
                   ValueKey(store_.Name(n), HashValue(store_.Content(n))), n);
      }
      for (const NodeAttr& a : store_.Attrs(n)) {
        IndexErase(kAttrImage, ValueKey(a.name, HashValue(a.value)), n);
      }
      store_.MarkDead(n);
    }
  }
  return Status::OK();
}

Status MctDatabase::SetContent(NodeId node, std::string_view text) {
  bool indexed = Indexed(node);
  if (indexed && store_.HasContent(node)) {
    IndexErase(kContentImage,
               ValueKey(store_.Name(node), HashValue(store_.Content(node))),
               node);
  }
  store_.SetContent(node, text);
  if (indexed) {
    IndexInsert(kContentImage, ValueKey(store_.Name(node), HashValue(text)),
                node);
  }
  return Status::OK();
}

Status MctDatabase::SetAttr(NodeId node, std::string_view name,
                            std::string_view value) {
  bool indexed = Indexed(node);
  NameId name_id = store_.InternName(name);
  const std::string* old = store_.FindAttr(node, name_id);
  if (indexed && old != nullptr) {
    IndexErase(kAttrImage, ValueKey(name_id, HashValue(*old)), node);
  }
  store_.SetAttr(node, name_id, value);
  if (indexed) {
    IndexInsert(kAttrImage, ValueKey(name_id, HashValue(value)), node);
  }
  return Status::OK();
}

std::optional<NodeId> MctDatabase::Parent(NodeId node, ColorId color) const {
  // Color compatibility (Section 3.2): accessor on a node lacking the color
  // returns the empty sequence.
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) {
    return std::nullopt;
  }
  NodeId p = trees_[color]->Parent(node);
  if (p == kInvalidNodeId) return std::nullopt;
  return p;
}

std::vector<NodeId> MctDatabase::Children(NodeId node, ColorId color) const {
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) return {};
  return trees_[color]->Children(node);
}

std::optional<std::string> MctDatabase::StringValue(NodeId node,
                                                    ColorId color) const {
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) {
    return std::nullopt;
  }
  std::string out;
  for (NodeId n : trees_[color]->PreOrder(node)) {
    if (store_.HasContent(n)) out += store_.Content(n);
  }
  return out;
}

std::optional<double> MctDatabase::TypedValue(NodeId node,
                                              ColorId color) const {
  auto sv = StringValue(node, color);
  if (!sv.has_value()) return std::nullopt;
  return ParseDouble(*sv);
}

void MctDatabase::SetShardCount(int n) {
  if (n < 1) n = 1;
  if (n > 64) n = 64;
  shard_count_ = n;
}

namespace {
// Below this, the serial sort wins over bucket + fan-out overhead.
constexpr size_t kShardSortMin = 4096;
}  // namespace

const std::vector<NodeId>* MctDatabase::TagPostings(
    ColorId color, std::string_view tag) const {
  NameId tag_id = store_.names().Lookup(tag);
  if (tag_id == kInvalidNameId || color >= trees_.size()) return nullptr;
  return ImageFind(Image(kTagImage), TagKey(color, tag_id));
}

std::vector<NodeId> MctDatabase::TagScan(ColorId color, std::string_view tag,
                                         ThreadPool* pool) {
  std::vector<NodeId> out;
  const std::vector<NodeId>* list = TagPostings(color, tag);
  if (list == nullptr) return out;
  out = *list;
  // Posting order is by node id (stable under relabeling); re-establish the
  // local document order the structural operators need. Keys are extracted
  // once before sorting (Start() is a chunk probe).
  trees_[color]->EnsureLabels();
  const ColoredTree& t = *trees_[color];
  std::vector<std::pair<uint64_t, NodeId>> keyed;
  keyed.reserve(out.size());
  for (NodeId n : out) keyed.emplace_back(t.Start(n), n);
  if (shard_count_ > 1 && pool != nullptr && pool->num_threads() > 1 &&
      keyed.size() >= kShardSortMin) {
    // Shard-parallel order restore: bucket by owning shard (shard ranges
    // are disjoint and ordered), sort each bucket as one pool task,
    // concatenate in shard order. Start labels are unique within a tree,
    // so this is byte-identical to the serial full sort.
    const ShardRanges ranges(shard_count_, t);
    const size_t ns = static_cast<size_t>(shard_count_);
    std::vector<uint32_t> shard_of(keyed.size());
    std::vector<size_t> offset(ns + 1, 0);
    for (size_t i = 0; i < keyed.size(); ++i) {
      shard_of[i] = static_cast<uint32_t>(ranges.ShardOf(keyed[i].first));
      ++offset[shard_of[i] + 1];
    }
    for (size_t s = 0; s < ns; ++s) offset[s + 1] += offset[s];
    std::vector<std::pair<uint64_t, NodeId>> bucketed(keyed.size());
    std::vector<size_t> fill(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < keyed.size(); ++i) {
      bucketed[fill[shard_of[i]]++] = keyed[i];
    }
    ShardTasksCounter()->Inc(ns);
    ParallelFor(pool, ns, [&](size_t s) {
      std::sort(bucketed.begin() + static_cast<ptrdiff_t>(offset[s]),
                bucketed.begin() + static_cast<ptrdiff_t>(offset[s + 1]));
    });
    keyed.swap(bucketed);
  } else {
    std::sort(keyed.begin(), keyed.end());
  }
  for (size_t i = 0; i < keyed.size(); ++i) out[i] = keyed[i].second;
  return out;
}

std::vector<NodeId> MctDatabase::ContentLookup(std::string_view tag,
                                               std::string_view value) const {
  std::vector<NodeId> out;
  NameId tag_id = store_.names().Lookup(tag);
  if (tag_id == kInvalidNameId) return out;
  const std::vector<NodeId>* list =
      ImageFind(Image(kContentImage), ValueKey(tag_id, HashValue(value)));
  if (list == nullptr) return out;
  for (NodeId n : *list) {
    if (store_.Content(n) == value) out.push_back(n);  // hash verify
  }
  return out;
}

std::vector<NodeId> MctDatabase::AttrLookup(std::string_view name,
                                            std::string_view value) const {
  std::vector<NodeId> out;
  NameId name_id = store_.names().Lookup(name);
  if (name_id == kInvalidNameId) return out;
  const std::vector<NodeId>* list =
      ImageFind(Image(kAttrImage), ValueKey(name_id, HashValue(value)));
  if (list == nullptr) return out;
  for (NodeId n : *list) {
    const std::string* v = store_.FindAttr(n, name);
    if (v != nullptr && *v == value) out.push_back(n);
  }
  return out;
}

size_t MctDatabase::TagCount(ColorId color, std::string_view tag) const {
  const std::vector<NodeId>* list = TagPostings(color, tag);
  return list == nullptr ? 0 : list->size();
}

namespace {

// Table 1 page model (DESIGN.md §2): the pages a fresh load of a version
// into the Timber decomposition occupies — fixed-size node, attribute and
// structural record files, slotted content and attribute-value files, and
// one B+-tree per index.
constexpr uint64_t kPageBytes = 8192;
constexpr uint32_t kNodeRecordBytes = 24;    // kind, name, colors, content slot
constexpr uint32_t kAttrRecordBytes = 16;    // name, value slot
// Timber's structural record: node, 5 links, start, end and level. The
// resident record keeps no level, but the model prices Timber's.
constexpr uint32_t kStructRecordBytes = 48;
// B+-tree pages: an 8-byte header, then 24-byte leaf entries (16-byte key,
// 8-byte value) or 20-byte internal entries (16-byte key, 4-byte child).
constexpr uint32_t kLeafEntries = (kPageBytes - 8) / 24;      // 341
constexpr uint32_t kInternalEntries = (kPageBytes - 8) / 20;  // 409

uint64_t FixedFilePages(uint64_t records, uint32_t record_bytes) {
  const uint64_t per_page = kPageBytes / record_bytes;
  return (records + per_page - 1) / per_page;
}

// Slotted pages: a 4-byte header, then per record its bytes plus a 4-byte
// slot entry. Records append to the tail page; one that does not fit there
// starts a new page, and one longer than a page runs on over as many
// continuation pages as it needs.
class SlottedPages {
 public:
  void Append(size_t bytes) {
    const uint64_t needed = bytes + 4;
    if (pages_ != 0 && free_ >= needed) {
      free_ -= needed;
      return;
    }
    const uint64_t span = (needed + kSlottedSpace - 1) / kSlottedSpace;
    pages_ += span;
    free_ = span * kSlottedSpace - needed;
  }
  uint64_t pages() const { return pages_; }

 private:
  static constexpr uint64_t kSlottedSpace = kPageBytes - 4;
  uint64_t pages_ = 0;
  uint64_t free_ = 0;
};

// A B+-tree over `entries` keys whose nodes hold `fill` of their capacity;
// an empty tree is its root leaf.
uint64_t BTreePages(uint64_t entries, double fill) {
  const uint64_t leaf = static_cast<uint64_t>(kLeafEntries * fill);
  const uint64_t fanout = static_cast<uint64_t>(kInternalEntries * fill);
  uint64_t level = std::max<uint64_t>(1, (entries + leaf - 1) / leaf);
  uint64_t pages = level;
  while (level > 1) {
    level = (level + fanout - 1) / fanout;
    pages += level;
  }
  return pages;
}

// Fill factors. Within each (color, tag) key the tag index receives
// node ids in ascending order, and a 50/50 split leaves every full leaf
// half empty. The content and attribute indexes key on value hashes, so
// entries arrive in random order: Yao's expected B-tree fill, ln 2.
constexpr double kAscendingFill = 0.5;
constexpr double kRandomFill = 0.6931471805599453;

}  // namespace

DatabaseStats MctDatabase::Stats() const {
  DatabaseStats s;
  uint64_t live = 0, tag_entries = 0, content_entries = 0, attr_entries = 0;
  SlottedPages content, attr_values;
  for (NodeId n = 0; n < store_.size(); ++n) {
    const ColorSet colors = store_.Colors(n);
    if (colors.empty() && n != document_) continue;  // free or dropped
    ++live;
    if (IsElement(n)) {
      ++s.num_elements;
      tag_entries += colors.count();
    }
    const bool indexed = !colors.empty();
    if (store_.HasContent(n)) {
      ++s.num_content_nodes;
      content.Append(store_.Content(n).size());
      content_entries += indexed;
    }
    for (const NodeAttr& a : store_.Attrs(n)) {
      ++s.num_attrs;
      attr_values.Append(a.value.size());
      attr_entries += indexed;
    }
  }
  uint64_t data_pages = FixedFilePages(live, kNodeRecordBytes) +
                        content.pages() +
                        FixedFilePages(s.num_attrs, kAttrRecordBytes) +
                        attr_values.pages();
  for (const auto& t : trees_) {
    s.num_struct_nodes += t->size();
    data_pages += FixedFilePages(t->size(), kStructRecordBytes);
  }
  s.data_bytes = data_pages * kPageBytes;
  s.index_bytes = (BTreePages(tag_entries, kAscendingFill) +
                   BTreePages(content_entries, kRandomFill) +
                   BTreePages(attr_entries, kRandomFill)) *
                  kPageBytes;
  return s;
}

size_t MctDatabase::ResidentChunks() const {
  size_t n = store_.ResidentChunks();
  for (const auto& t : trees_) n += t->ResidentChunks();
  for (const IndexImage& image : images_) {
    n += 1;  // the directory
    for (const auto& bucket : image->buckets) n += (bucket != nullptr);
  }
  return n;
}

std::array<uint64_t, 3> MctDatabase::ImageEntries() const {
  std::array<uint64_t, 3> out{};
  for (int kind = 0; kind < kNumImages; ++kind) {
    for (const auto& bucket : Image(static_cast<ImageKind>(kind)).buckets) {
      if (bucket == nullptr) continue;
      for (const auto& [_, list] : bucket->lists) out[kind] += list->size();
    }
  }
  return out;
}

}  // namespace mct
