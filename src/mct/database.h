// MctDatabase: the public entry point of the library — a multi-colored tree
// database (Definition 3.2): a shared node set, a palette of colors, and one
// colored tree per color, all rooted at a single document node that carries
// every color.
//
// The class exposes:
//  * the paper's color-aware accessors (Section 3.2): Parent(n,c),
//    Children(n,c), StringValue(n,c), TypedValue(n,c), Colors(n);
//  * both constructor families (Section 3.3): first-color constructors
//    (CreateElement / CreateFreeElement, a fresh identity) and next-color
//    constructors (AddNodeColor, same identity gaining a color and tree
//    relationships in it);
//  * index-backed scans used by the physical query operators;
//  * per-color type counts (elements per tag, child edges per pair of
//    tags), the statistics behind Section 5's quant(e, c); and
//  * the storage statistics behind Table 1.
//
// A conventional XML database is the single-color special case, which is
// how the shallow and deep baselines of Section 7 are represented.
//
// MVCC (DESIGN.md §14): CowClone() snapshots the whole database by copying
// one leaf pointer per 8,192 node ids in the node store and in each colored
// tree (0.5-1.0 us, and as much to drop, on scale-1 TPC-W): node and
// structural records live in 64-slot chunks under 128-chunk leaves, both
// shared copy-on-write, and the tag/content/attribute indexes are *resident
// images* shared between versions at three levels — a fixed directory of
// bucket pointers, the buckets (small maps from key to posting list), and
// the posting lists. A version's write copies only the directory, the one
// bucket and the one list it touches, each only while another version
// still holds it, and then edits in place; so a commit's first index write
// costs one bucket. Index entries exist only for nodes carrying at least
// one color, so query-side constructor scratch (free elements built by
// RETURN clauses on reader clones) never touches the shared images.
//
// Bulk loads (the workload builders, OpenSnapshot, ImportXml,
// LoadXmlElement) run inside a Loader: their index entries are buffered
// and each posting list is built once, from sorted entries, instead of
// inserting one id at a time into a sorted list.
//
// Table 1 sizes are not stored anywhere: Stats() derives them from a page
// model of the version (the pages a fresh load of it into Timber-style
// record files and B+-trees would occupy), so they depend on what the
// version holds, never on how it was built.

#ifndef COLORFUL_XML_MCT_DATABASE_H_
#define COLORFUL_XML_MCT_DATABASE_H_

#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "mct/color.h"
#include "mct/colored_tree.h"
#include "mct/node_store.h"

namespace mct {

class ThreadPool;

/// Storage statistics in the shape of the paper's Table 1.
struct DatabaseStats {
  uint64_t num_elements = 0;
  uint64_t num_attrs = 0;
  uint64_t num_content_nodes = 0;
  /// Structural-node records summed over every colored tree (an element
  /// with k colors contributes k).
  uint64_t num_struct_nodes = 0;
  /// Bytes in the pages of the node, content, attribute and structural
  /// record files.
  uint64_t data_bytes = 0;
  /// Bytes in the pages of the tag, content and attribute B+-tree indexes.
  uint64_t index_bytes = 0;

  double DataMBytes() const { return static_cast<double>(data_bytes) / (1u << 20); }
  double IndexMBytes() const { return static_cast<double>(index_bytes) / (1u << 20); }
};

class MctDatabase {
 public:
  /// Creates an empty database: the document node and no colors.
  MctDatabase();
  ~MctDatabase();

  MctDatabase& operator=(const MctDatabase&) = delete;

  /// COW snapshot of this database. The clone shares node/structural
  /// chunks and index posting lists with its source and privatizes only
  /// what it subsequently writes, so any number of clones may be written
  /// and discarded without affecting the source.
  std::unique_ptr<MctDatabase> CowClone() const;
  /// Same as CowClone(); the argument is ignored. Kept only for callers
  /// written against the former write-through flag.
  std::unique_ptr<MctDatabase> CowClone(bool /*ignored*/) const {
    return CowClone();
  }

  /// A bulk load (RAII). While a Loader is open, AddNodeColor, SetContent
  /// and SetAttr build the node store and the colored trees as usual, but
  /// append each index entry to a per-image buffer of (key, node) pairs
  /// instead of inserting it into its sorted posting list, where an id
  /// that arrives out of order would shift the rest of the list. Finish()
  /// sorts each buffer once and builds each key's posting list, or merges
  /// into the existing one, with one copy-on-write step per bucket and per
  /// list. The destructor finishes a load that returns early, so the
  /// images agree with the trees on every exit path. An erase during the
  /// load (an overwritten value) first builds that image's pending entries
  /// in. Index reads (TagScan, TagPostings, TagCount, ContentLookup,
  /// AttrLookup, ForEachElementCount) and CowClone wait for Finish
  /// (asserted); loaders do not nest. Finish runs no label pass: labels
  /// stay lazy.
  class Loader {
   public:
    explicit Loader(MctDatabase* db);
    ~Loader() { Finish(); }
    Loader(const Loader&) = delete;
    Loader& operator=(const Loader&) = delete;

    /// Builds the buffered entries into the images and ends the load;
    /// later calls do nothing.
    void Finish();

   private:
    MctDatabase* db_;
  };

  // ---- Palette ----

  /// Registers a color; its colored tree is created rooted at the shared
  /// document node (which thereby gains the color).
  Result<ColorId> RegisterColor(std::string_view name);
  /// Id of a registered color or kInvalidColorId.
  ColorId LookupColor(std::string_view name) const {
    return colors_.Lookup(name);
  }
  const std::string& ColorName(ColorId c) const { return colors_.Name(c); }
  size_t num_colors() const { return colors_.size(); }

  /// The shared document node, root of every colored tree.
  NodeId document() const { return document_; }

  // ---- Constructors (Section 3.3) ----

  /// First-color constructor: a new element with a fresh identity, colored
  /// `color` and appended under `parent` (which must be in that tree).
  Result<NodeId> CreateElement(ColorId color, NodeId parent,
                               std::string_view tag);

  /// A new element with no color yet — MCXQuery constructor expressions
  /// build fragments from these before createColor attaches them.
  Result<NodeId> CreateFreeElement(std::string_view tag);

  /// Next-color constructor: `node` (same identity) gains `color` and is
  /// inserted under `parent` in that tree, before `before` (or appended).
  /// AlreadyExists when `node` is already in the tree — MCXQuery's
  /// duplicate-node dynamic error.
  Status AddNodeColor(NodeId node, ColorId color, NodeId parent,
                      NodeId before = kInvalidNodeId);

  /// Detaches the subtree at `node` from `color`; every detached node loses
  /// the color, and nodes left with no colors are dropped from the store.
  Status RemoveNodeColor(NodeId node, ColorId color);

  // ---- Node payload ----

  Status SetContent(NodeId node, std::string_view text);
  const std::string& Content(NodeId node) const { return store_.Content(node); }
  Status SetAttr(NodeId node, std::string_view name, std::string_view value);
  const std::string* FindAttr(NodeId node, std::string_view name) const {
    return store_.FindAttr(node, name);
  }
  const std::vector<NodeAttr>& Attrs(NodeId node) const {
    return store_.Attrs(node);
  }
  xml::NodeKind Kind(NodeId node) const { return store_.Kind(node); }
  const std::string& Tag(NodeId node) const { return store_.NameString(node); }
  NameId TagId(NodeId node) const { return store_.Name(node); }

  // ---- Accessors (Section 3.2) ----

  /// dm:colors — the colors of a node.
  ColorSet Colors(NodeId node) const { return store_.Colors(node); }

  /// dm:parent with color; nullopt when node and color are not
  /// color-compatible ("empty sequence" in the paper), kInvalidNodeId never
  /// escapes.
  std::optional<NodeId> Parent(NodeId node, ColorId color) const;

  /// dm:children with color; empty when not color-compatible.
  std::vector<NodeId> Children(NodeId node, ColorId color) const;

  /// dm:string-value with color: own content plus descendant content in the
  /// local order of `color`; nullopt when not color-compatible.
  std::optional<std::string> StringValue(NodeId node, ColorId color) const;

  /// dm:typed-value with color: string value parsed as xs:double.
  std::optional<double> TypedValue(NodeId node, ColorId color) const;

  // ---- Query support ----

  ColoredTree* tree(ColorId c) { return trees_[c].get(); }
  const ColoredTree* tree(ColorId c) const { return trees_[c].get(); }

  /// All elements with `tag` in `color`, sorted by local document order.
  /// With shard_count() > 1 and a pool, the order-restoring sort runs as
  /// one task per shard (bucket by owning shard, sort buckets in parallel,
  /// concatenate in shard order) — the result is byte-identical to the
  /// serial sort because shard ranges are disjoint and ordered.
  std::vector<NodeId> TagScan(ColorId color, std::string_view tag,
                              ThreadPool* pool = nullptr);

  /// All elements with `tag` in `color`, read in place from the tag index:
  /// ascending NodeId order, null when there are none. Valid until the
  /// next write to this database.
  const std::vector<NodeId>* TagPostings(ColorId color,
                                         std::string_view tag) const;

  // ---- Interval-range sharding (DESIGN.md §17) ----

  /// Sets the number of intra-process shards (clamped to [1, 64]).
  /// 1 disables sharding entirely: every operator takes its unsharded
  /// code path. The structural operators split a color's root interval
  /// into this many ShardRanges where they use them; safe only between
  /// statements.
  void SetShardCount(int n);
  int shard_count() const { return shard_count_; }

  /// Elements with `tag` whose own content equals `value`
  /// (content-index probe; color-agnostic).
  std::vector<NodeId> ContentLookup(std::string_view tag,
                                    std::string_view value) const;

  /// Elements having attribute `name` = `value` (attribute-index probe).
  std::vector<NodeId> AttrLookup(std::string_view name,
                                 std::string_view value) const;

  /// Number of elements of `tag` in `color` (for planner selectivity).
  size_t TagCount(ColorId color, std::string_view tag) const;

  // ---- Type counts (the inputs of Section 5's quant(e, c)) ----
  //
  // Both are kept current by AddNodeColor / RemoveNodeColor, through which
  // every structural change passes, so a schema is a projection of them
  // rather than a walk over every node. Pairs whose count is zero are
  // absent.

  /// Calls fn(color, tag, n) for every element type with n > 0 members in
  /// `color` — the sizes of the tag image's posting lists.
  template <typename Fn>
  void ForEachElementCount(Fn&& fn) const {
    for (const auto& bucket : Image(kTagImage).buckets) {
      if (bucket == nullptr) continue;
      for (const auto& [key, list] : bucket->lists) {
        fn(static_cast<ColorId>(key >> 32), static_cast<NameId>(key),
           static_cast<uint64_t>(list->size()));
      }
    }
  }

  /// Calls fn(color, parent tag, child tag, n) for every pair of element
  /// types joined by n > 0 element-to-element child edges in `color`.
  template <typename Fn>
  void ForEachChildEdgeCount(Fn&& fn) const {
    for (const auto& [key, n] : *edge_counts_) {
      fn(key.color, key.parent, key.child, n);
    }
  }

  NodeStore* mutable_store() { return &store_; }
  const NodeStore& store() const { return store_; }

  /// Table 1 statistics: counts from one pass over the live nodes (the
  /// document and every node in at least one colored tree), sizes from the
  /// page model of DESIGN.md §2. Computed on demand.
  DatabaseStats Stats() const;

  /// COW units resident in this version — the leaves and chunks of the
  /// store and of every colored tree, and the index images' directories and
  /// buckets — the baseline the epoch-
  /// retirement leak test compares CowLiveChunks() against once all other
  /// versions are retired.
  size_t ResidentChunks() const;

  /// (key, node) entries held by the tag, content and attribute images, in
  /// that order — what ValidateDatabase checks against the node store.
  std::array<uint64_t, 3> ImageEntries() const;

  /// The 32-bit value hash the content/attribute indexes key on. Public so
  /// tests can engineer colliding values and assert the lookup recheck.
  static uint32_t HashValue(std::string_view s);

 private:
  // Resident index image, copy-on-write at three levels that versions
  // share: a directory of kImageBuckets bucket pointers (picked by a
  // multiplicative hash of the key), each bucket a small map from key to
  // posting list (node ids, ascending), null when empty. A write
  // privatizes, in order, the directory, the key's bucket and the key's
  // list — each copied only while another version still holds it (CowOwn)
  // — and then inserts or erases in place, so published versions stay
  // frozen. An erase that empties a list drops its key, and a bucket left
  // with no key becomes null. Directories and buckets count in the
  // CowLiveChunks() census.
  static constexpr int kImageBucketBits = 10;
  static constexpr size_t kImageBuckets = size_t{1} << kImageBucketBits;
  using PostingList = std::shared_ptr<std::vector<NodeId>>;
  struct ImageBucket : CowCounted {
    std::unordered_map<uint64_t, PostingList> lists;
  };
  struct ImageDirectory : CowCounted {
    std::array<std::shared_ptr<ImageBucket>, kImageBuckets> buckets;
  };
  using IndexImage = std::shared_ptr<ImageDirectory>;
  enum ImageKind : uint8_t { kTagImage, kContentImage, kAttrImage, kNumImages };
  struct ImageEntry {
    uint64_t key;
    NodeId node;
  };

  // The COW clone step, reachable only through CowClone().
  MctDatabase(const MctDatabase& o);

  static uint64_t TagKey(ColorId color, NameId tag) {
    return (uint64_t{color} << 32) | tag;
  }
  static uint64_t ValueKey(NameId name, uint32_t hash) {
    return (uint64_t{name} << 32) | hash;
  }
  /// Directory slot of an image key: Fibonacci hashing, whose top bits mix
  /// every bit of the key.
  static size_t BucketOf(uint64_t key) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                               (64 - kImageBucketBits));
  }
  // Child-edge counts between element types, per color. Shared between
  // versions and copied whole on a version's first write (a few dozen
  // keys, so it needs no buckets).
  struct EdgeKey {
    ColorId color;
    NameId parent;
    NameId child;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return std::hash<uint64_t>()((TagKey(k.color, k.parent) << 16) ^
                                   k.child);
    }
  };
  using EdgeCounts = std::unordered_map<EdgeKey, uint64_t, EdgeKeyHash>;

  static void ImageInsert(IndexImage* image, uint64_t key, NodeId n);
  static void ImageErase(IndexImage* image, uint64_t key, NodeId n);
  static const std::vector<NodeId>* ImageFind(const ImageDirectory& image,
                                              uint64_t key);
  /// Index writes: buffered while a Loader is open, applied in place
  /// otherwise.
  void IndexInsert(ImageKind kind, uint64_t key, NodeId n);
  void IndexErase(ImageKind kind, uint64_t key, NodeId n);
  /// Sorts the pending entries of one image and builds them into it.
  void BuildPending(ImageKind kind);
  /// An image for reading, which needs every pending entry built in.
  const ImageDirectory& Image(ImageKind kind) const {
    assert(!loading_);
    return *images_[kind];
  }

  bool IsElement(NodeId n) const {
    return store_.Kind(n) == xml::NodeKind::kElement;
  }

  /// True when the node's content/attribute values are index-visible (it
  /// carries at least one color).
  bool Indexed(NodeId n) const { return !store_.Colors(n).empty(); }

  NodeStore store_;
  ColorRegistry colors_;
  std::vector<std::unique_ptr<ColoredTree>> trees_;
  NodeId document_ = kInvalidNodeId;
  // Resident images: the tag image keyed TagKey, the content and attribute
  // images keyed ValueKey.
  std::array<IndexImage, kNumImages> images_;
  std::shared_ptr<EdgeCounts> edge_counts_;
  // An open Loader's buffered entries, per image.
  bool loading_ = false;
  std::array<std::vector<ImageEntry>, kNumImages> pending_;
  int shard_count_ = 1;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_DATABASE_H_
