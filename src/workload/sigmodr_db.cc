#include "workload/sigmodr_db.h"

#include <cmath>

#include "common/rng.h"
#include "common/strings.h"

namespace mct::workload {

SigmodScale SigmodScale::ScaledBy(double f) const {
  SigmodScale s = *this;
  auto scale = [&](int v) {
    return std::max(1, static_cast<int>(std::lround(v * f)));
  };
  s.num_years = scale(num_years);
  s.articles_per_issue = scale(articles_per_issue);
  s.num_authors = scale(num_authors);
  s.num_editors = scale(num_editors);
  s.num_topics = scale(num_topics);
  return s;
}

SigmodData GenerateSigmod(const SigmodScale& scale) {
  Rng rng(scale.seed);
  SigmodData d;
  d.scale = scale;
  for (int y = 0; y < scale.num_years; ++y) {
    d.years.push_back(std::to_string(1990 + y));
  }
  for (int i = 0; i < scale.num_authors; ++i) {
    d.authors.push_back(rng.Word(4, 7) + " " + rng.Word(5, 10));
  }
  for (int i = 0; i < scale.num_editors; ++i) {
    d.editors.push_back("editor " + rng.Word(5, 9));
  }
  for (int i = 0; i < scale.num_topics; ++i) {
    d.topics.push_back("topic-" + rng.Word(4, 9) + "-" + std::to_string(i));
    // Round-robin so every editor owns at least one topic.
    d.topic_editor.push_back(i % scale.num_editors);
  }
  int article_id = 0;
  for (int y = 0; y < scale.num_years; ++y) {
    for (int n = 0; n < scale.issues_per_year; ++n) {
      SigmodIssue issue;
      issue.id = static_cast<int>(d.issues.size());
      issue.volume = 19 + y;
      issue.number = n + 1;
      issue.year = y;
      issue.date = d.years[static_cast<size_t>(y)] + "-" +
                   StrFormat("%02d", n * (12 / scale.issues_per_year) + 1);
      int page = 1;
      for (int a = 0; a < scale.articles_per_issue; ++a) {
        SigmodArticle art;
        art.id = article_id++;
        art.title = "On " + rng.Word(5, 9) + " " + rng.Word(4, 8) + " (" +
                    std::to_string(art.id) + ")";
        art.init_page = page;
        page += static_cast<int>(rng.UniformInt(4, 14));
        art.end_page = page - 1;
        int nauth = static_cast<int>(rng.UniformInt(
            scale.min_article_authors, scale.max_article_authors));
        for (int k = 0; k < nauth; ++k) {
          art.author_ids.push_back(static_cast<int>(
              rng.Zipf(static_cast<uint64_t>(scale.num_authors), 0.5)));
        }
        art.issue_id = issue.id;
        art.topic_id = static_cast<int>(
            rng.Zipf(static_cast<uint64_t>(scale.num_topics), 0.5));
        d.articles.push_back(std::move(art));
      }
      d.issues.push_back(issue);
    }
  }
  // Every topic gets at least one article (the deep schema materializes
  // topics/editors only inside articles, and the catalogs must be
  // result-equivalent across schemas).
  std::vector<bool> covered(static_cast<size_t>(scale.num_topics), false);
  for (const SigmodArticle& a : d.articles) {
    covered[static_cast<size_t>(a.topic_id)] = true;
  }
  size_t next = 0;
  for (int t = 0; t < scale.num_topics; ++t) {
    if (covered[static_cast<size_t>(t)]) continue;
    d.articles[next % d.articles.size()].topic_id = t;
    ++next;
  }
  return d;
}

namespace {

// A field child in every color of the parent.
Status Field(MctDatabase* db, NodeId parent, ColorSet colors,
             const std::string& tag, const std::string& content) {
  auto cs = colors.ToVector();
  MCT_ASSIGN_OR_RETURN(NodeId f, db->CreateElement(cs[0], parent, tag));
  for (size_t i = 1; i < cs.size(); ++i) {
    MCT_RETURN_IF_ERROR(db->AddNodeColor(f, cs[i], parent));
  }
  return db->SetContent(f, content);
}

Status AddArticlePayload(MctDatabase* db, NodeId n, ColorSet cs,
                         const SigmodData& d, const SigmodArticle& art) {
  MCT_RETURN_IF_ERROR(Field(db, n, cs, "title", art.title));
  MCT_RETURN_IF_ERROR(
      Field(db, n, cs, "initPage", std::to_string(art.init_page)));
  MCT_RETURN_IF_ERROR(Field(db, n, cs, "endPage", std::to_string(art.end_page)));
  for (int a : art.author_ids) {
    MCT_RETURN_IF_ERROR(
        Field(db, n, cs, "author", d.authors[static_cast<size_t>(a)]));
  }
  return Status::OK();
}

Status BuildMct(const SigmodData& d, SigmodDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.time, db->RegisterColor("time"));
  MCT_ASSIGN_OR_RETURN(out.topic, db->RegisterColor("topic"));
  NodeId doc = db->document();

  // time: date -- issue -- articles.
  std::vector<NodeId> issue_nodes;
  for (int y = 0; y < d.scale.num_years; ++y) {
    MCT_ASSIGN_OR_RETURN(NodeId dn, db->CreateElement(out.time, doc, "date"));
    MCT_RETURN_IF_ERROR(db->SetContent(dn, d.years[static_cast<size_t>(y)]));
    for (const SigmodIssue& is : d.issues) {
      if (is.year != y) continue;
      MCT_ASSIGN_OR_RETURN(NodeId in, db->CreateElement(out.time, dn, "issue"));
      MCT_RETURN_IF_ERROR(
          db->SetAttr(in, "id", "is" + std::to_string(is.id)));
      ColorSet cs = ColorSet::Of(out.time);
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "volume", std::to_string(is.volume)));
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "number", std::to_string(is.number)));
      if (static_cast<size_t>(is.id) >= issue_nodes.size()) {
        issue_nodes.resize(static_cast<size_t>(is.id) + 1, kInvalidNodeId);
      }
      issue_nodes[static_cast<size_t>(is.id)] = in;
    }
  }
  // topic: editor -- topic -- articles.
  std::vector<NodeId> editor_nodes;
  for (const std::string& e : d.editors) {
    MCT_ASSIGN_OR_RETURN(NodeId en, db->CreateElement(out.topic, doc, "editor"));
    MCT_RETURN_IF_ERROR(
        Field(db, en, ColorSet::Of(out.topic), "name", e));
    editor_nodes.push_back(en);
  }
  std::vector<NodeId> topic_nodes;
  for (size_t t = 0; t < d.topics.size(); ++t) {
    NodeId editor = editor_nodes[static_cast<size_t>(d.topic_editor[t])];
    MCT_ASSIGN_OR_RETURN(NodeId tn, db->CreateElement(out.topic, editor, "topic"));
    MCT_RETURN_IF_ERROR(Field(db, tn, ColorSet::Of(out.topic), "name", d.topics[t]));
    topic_nodes.push_back(tn);
  }
  // Articles carry both colors; their payload children do too.
  for (const SigmodArticle& art : d.articles) {
    NodeId issue = issue_nodes[static_cast<size_t>(art.issue_id)];
    MCT_ASSIGN_OR_RETURN(NodeId an, db->CreateElement(out.time, issue, "article"));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(
        an, out.topic, topic_nodes[static_cast<size_t>(art.topic_id)]));
    MCT_RETURN_IF_ERROR(db->SetAttr(an, "id", "ar" + std::to_string(art.id)));
    // Attribute parity with the shallow build (paper Table 1 reports
    // near-identical attribute counts for MCT and shallow).
    MCT_RETURN_IF_ERROR(
        db->SetAttr(an, "issueIdRef", "is" + std::to_string(art.issue_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(an, "topicIdRef", "t" + std::to_string(art.topic_id)));
    MCT_RETURN_IF_ERROR(AddArticlePayload(db, an, db->Colors(an), d, art));
  }
  return Status::OK();
}

Status BuildShallow(const SigmodData& d, SigmodDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.doc, db->RegisterColor("doc"));
  const ColorId c = out.doc;
  ColorSet cs = ColorSet::Of(c);
  MCT_ASSIGN_OR_RETURN(NodeId root,
                       db->CreateElement(c, db->document(), "sigmod"));

  // Tree 1: date -- issue (nested as in the paper's shallow variant).
  MCT_ASSIGN_OR_RETURN(NodeId datetree, db->CreateElement(c, root, "dates"));
  for (int y = 0; y < d.scale.num_years; ++y) {
    MCT_ASSIGN_OR_RETURN(NodeId dn, db->CreateElement(c, datetree, "date"));
    MCT_RETURN_IF_ERROR(db->SetContent(dn, d.years[static_cast<size_t>(y)]));
    for (const SigmodIssue& is : d.issues) {
      if (is.year != y) continue;
      MCT_ASSIGN_OR_RETURN(NodeId in, db->CreateElement(c, dn, "issue"));
      MCT_RETURN_IF_ERROR(db->SetAttr(in, "id", "is" + std::to_string(is.id)));
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "volume", std::to_string(is.volume)));
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "number", std::to_string(is.number)));
    }
  }
  // Tree 2: editor -- topic.
  MCT_ASSIGN_OR_RETURN(NodeId edtree, db->CreateElement(c, root, "editors"));
  std::vector<NodeId> editor_nodes;
  for (size_t e = 0; e < d.editors.size(); ++e) {
    MCT_ASSIGN_OR_RETURN(NodeId en, db->CreateElement(c, edtree, "editor"));
    MCT_RETURN_IF_ERROR(db->SetAttr(en, "id", "e" + std::to_string(e)));
    MCT_RETURN_IF_ERROR(Field(db, en, cs, "name", d.editors[e]));
    editor_nodes.push_back(en);
  }
  for (size_t t = 0; t < d.topics.size(); ++t) {
    NodeId en = editor_nodes[static_cast<size_t>(d.topic_editor[t])];
    MCT_ASSIGN_OR_RETURN(NodeId tn, db->CreateElement(c, en, "topic"));
    MCT_RETURN_IF_ERROR(db->SetAttr(tn, "id", "t" + std::to_string(t)));
    MCT_RETURN_IF_ERROR(Field(db, tn, cs, "name", d.topics[t]));
  }
  // Tree 3: flat articles with IDREFs into the other two trees.
  MCT_ASSIGN_OR_RETURN(NodeId arts, db->CreateElement(c, root, "articles"));
  for (const SigmodArticle& art : d.articles) {
    MCT_ASSIGN_OR_RETURN(NodeId an, db->CreateElement(c, arts, "article"));
    MCT_RETURN_IF_ERROR(db->SetAttr(an, "id", "ar" + std::to_string(art.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(an, "issueIdRef", "is" + std::to_string(art.issue_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(an, "topicIdRef", "t" + std::to_string(art.topic_id)));
    MCT_RETURN_IF_ERROR(AddArticlePayload(db, an, cs, d, art));
  }
  return Status::OK();
}

Status BuildDeep(const SigmodData& d, SigmodDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.doc, db->RegisterColor("doc"));
  const ColorId c = out.doc;
  ColorSet cs = ColorSet::Of(c);
  MCT_ASSIGN_OR_RETURN(NodeId root,
                       db->CreateElement(c, db->document(), "sigmod"));
  // Articles by issue for nesting.
  std::vector<std::vector<const SigmodArticle*>> by_issue(d.issues.size());
  for (const SigmodArticle& art : d.articles) {
    by_issue[static_cast<size_t>(art.issue_id)].push_back(&art);
  }
  for (int y = 0; y < d.scale.num_years; ++y) {
    MCT_ASSIGN_OR_RETURN(NodeId dn, db->CreateElement(c, root, "date"));
    MCT_RETURN_IF_ERROR(db->SetContent(dn, d.years[static_cast<size_t>(y)]));
    for (const SigmodIssue& is : d.issues) {
      if (is.year != y) continue;
      MCT_ASSIGN_OR_RETURN(NodeId in, db->CreateElement(c, dn, "issue"));
      MCT_RETURN_IF_ERROR(db->SetAttr(in, "id", "is" + std::to_string(is.id)));
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "volume", std::to_string(is.volume)));
      MCT_RETURN_IF_ERROR(Field(db, in, cs, "number", std::to_string(is.number)));
      for (const SigmodArticle* art : by_issue[static_cast<size_t>(is.id)]) {
        MCT_ASSIGN_OR_RETURN(NodeId an, db->CreateElement(c, in, "article"));
        MCT_RETURN_IF_ERROR(
            db->SetAttr(an, "id", "ar" + std::to_string(art->id)));
        MCT_RETURN_IF_ERROR(AddArticlePayload(db, an, cs, d, *art));
        // Replicated classification: topic (with its editor) inside every
        // article.
        MCT_ASSIGN_OR_RETURN(NodeId tn, db->CreateElement(c, an, "topic"));
        MCT_RETURN_IF_ERROR(Field(
            db, tn, cs, "name", d.topics[static_cast<size_t>(art->topic_id)]));
        MCT_ASSIGN_OR_RETURN(NodeId en, db->CreateElement(c, tn, "editor"));
        MCT_RETURN_IF_ERROR(Field(
            db, en, cs, "name",
            d.editors[static_cast<size_t>(
                d.topic_editor[static_cast<size_t>(art->topic_id)])]));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<SigmodDb> BuildSigmod(const SigmodData& data, SchemaKind kind) {
  SigmodDb out;
  out.kind = kind;
  out.db = std::make_unique<MctDatabase>();
  // One bulk load: each index posting list is built once, at Finish.
  MctDatabase::Loader loader(out.db.get());
  switch (kind) {
    case SchemaKind::kMct:
      MCT_RETURN_IF_ERROR(BuildMct(data, out));
      break;
    case SchemaKind::kShallow:
      MCT_RETURN_IF_ERROR(BuildShallow(data, out));
      break;
    case SchemaKind::kDeep:
      MCT_RETURN_IF_ERROR(BuildDeep(data, out));
      break;
    default:
      return Status::InvalidArgument("unknown schema kind");
  }
  loader.Finish();
  return out;
}

}  // namespace mct::workload
