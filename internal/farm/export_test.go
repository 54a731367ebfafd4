package farm

// CampaignID exposes the journal identity to the external tests, which
// read a farm journal back through sweep.OpenJournal.
var CampaignID = campaignID
